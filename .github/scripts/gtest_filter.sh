#!/usr/bin/env bash
# Runs a googletest binary under --gtest_filter, failing when the filter
# selects no test: gtest itself exits 0 on an empty selection, so a filter
# left stale by a rename or deletion would otherwise pass silently.
#
#   gtest_filter.sh BINARY FILTER [EXTRA_GTEST_ARGS...]
set -euo pipefail

if [ "$#" -lt 2 ]; then
  echo "usage: $0 BINARY FILTER [EXTRA_GTEST_ARGS...]" >&2
  exit 2
fi
bin=$1
filter=$2
shift 2

# Test lines in --gtest_list_tests output are indented by two spaces;
# suite lines and gtest_main's banner are not.
count=$("$bin" --gtest_list_tests --gtest_filter="$filter" | grep -c '^  ' || true)
if [ "$count" -eq 0 ]; then
  echo "error: --gtest_filter='$filter' selects no test in $bin" >&2
  exit 1
fi
echo "--gtest_filter='$filter' selects $count test(s) in $bin"
exec "$bin" --gtest_filter="$filter" "$@"
