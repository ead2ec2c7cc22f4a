// Durable filesystem primitives shared by every on-disk writer.
//
// A plain truncate-in-place write has a torn-write window: a crash after
// the truncate but before the final byte leaves a short file that parses
// as silently-truncated FASTQ/FASTA/VCF (or a chunk whose footer is gone).
// atomic_write_file closes that window with the classic discipline: write
// a temp file in the target directory, fsync it, rename over the target,
// fsync the directory.  Readers see either the old bytes or the new bytes,
// never a prefix.
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace gpf::fs {

/// Writes `bytes` to `path` atomically (temp file + fsync + rename +
/// directory fsync).  Throws std::runtime_error naming the path and the
/// failing step; the temp file is unlinked on every failure path.
void atomic_write_file(const std::string& path,
                       std::span<const std::uint8_t> bytes);

/// std::string_view convenience overload.
void atomic_write_file(const std::string& path, std::string_view contents);

/// Deliberately NON-atomic prefix write: truncates `path` in place and
/// writes only the first `prefix_bytes` of `bytes` (clamped to the full
/// size).  This is the torn-write fault-injection surface — it reproduces
/// exactly what a crash mid-write under the old truncate-in-place
/// discipline leaves behind, so tests can assert torn files are
/// *detected* rather than silently parsed short.  Never use it for real
/// data.
void write_file_prefix_for_testing(const std::string& path,
                                   std::span<const std::uint8_t> bytes,
                                   std::size_t prefix_bytes);

namespace testing {

/// Installs a hook invoked by atomic_write_file after the temp file is
/// opened but before any byte is written; a throwing hook simulates a
/// crash mid-write.  The regression contract under an injected failure:
/// the destination keeps its old bytes and no temp file is left behind.
/// Pass nullptr to uninstall.  Not thread-safe; test-only.
void set_write_failure_hook(void (*hook)());

}  // namespace testing

}  // namespace gpf::fs
