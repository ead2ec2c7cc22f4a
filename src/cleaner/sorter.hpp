// Coordinate sorting of alignment records (the Cleaner stage's
// sort/index step, samtools-sort equivalent).
#pragma once

#include <cstdint>
#include <vector>

#include "formats/sam.hpp"

namespace gpf::cleaner {

/// Sorts records by (contig, pos, strand, name); unmapped records go last.
void coordinate_sort(std::vector<SamRecord>& records);

/// Verifies coordinate order (used as a pipeline invariant check).
bool is_coordinate_sorted(const std::vector<SamRecord>& records);

/// `records` itself when it is coordinate-sorted; otherwise a sorted copy
/// in `scratch`.  coordinate_sort is stable, so both are the same sequence.
const std::vector<SamRecord>& coordinate_sorted(
    const std::vector<SamRecord>& records, std::vector<SamRecord>& scratch);

/// Merges already-sorted runs into one sorted vector (the reduce side of a
/// distributed sort).
std::vector<SamRecord> merge_sorted_runs(
    std::vector<std::vector<SamRecord>> runs);

/// A BAM-style linear index: for each 16kb window of each contig, the
/// index of the first overlapping record in a coordinate-sorted vector.
class LinearIndex {
 public:
  static constexpr std::int64_t kWindow = 16384;

  LinearIndex(const std::vector<SamRecord>& sorted_records,
              std::size_t contig_count);

  /// First record index whose start is >= the window containing `pos`
  /// (callers then scan forward).  Returns records.size() when past the
  /// end.
  std::size_t first_candidate(std::int32_t contig_id, std::int64_t pos) const;

 private:
  std::vector<std::vector<std::size_t>> windows_;  // per contig
  std::size_t record_count_;
};

}  // namespace gpf::cleaner
