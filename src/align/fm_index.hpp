// FM-index over a concatenated multi-contig reference: occurrence blocks
// and a full suffix array.  This is the paper's "BWT algorithm [15] to
// index genome sequences" substrate for the Aligner stage (bwa-style
// backward search).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "formats/fasta.hpp"

namespace gpf::align {

/// Half-open range of BWT rows matching a query (SA interval).
struct SaInterval {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;  // exclusive
  std::uint32_t size() const { return hi - lo; }
  bool empty() const { return hi <= lo; }
  bool operator==(const SaInterval&) const = default;
};

/// A reference position resolved from an SA row.
struct RefPosition {
  std::int32_t contig_id = -1;
  std::int64_t offset = -1;
};

/// FM-index with one 64-byte occurrence block per 64 BWT rows.
///
/// Text alphabet: separator $=0, A=1, C=2, G=3, T=4.  Each contig is
/// followed by a separator; N and any other byte in the reference is
/// indexed as A (gaps rarely attract seeds because reads never contain long
/// A-runs from gaps).  Only uppercase A/C/G/T in a query match: N and
/// lowercase bytes give an empty interval.
///
/// Rank layout (bwa-mem2's occurrence blocks): block b covers BWT rows
/// [64b, 64b + 64) and holds the A/C/G/T counts of rows before it plus one
/// one-hot row mask per base; separator rows are in no mask.  So
///   occ(c, i) = count[c] + popcount(mask[c] & ((1 << i % 64) - 1))
/// reads one cache line.  There is one block more than full 64-row groups,
/// so occ(c, text_length()) is defined when the length is a multiple of 64.
/// The byte BWT is not kept: the blocks are all rank needs, at 1 byte per
/// row.
///
/// search() runs its whole backward loop in one of two builds of the same
/// code: one compiled for the POPCNT instruction, one with the portable
/// std::popcount (a libgcc call on the x86-64 baseline).  It takes the
/// POPCNT build when the CPU has it and simd::active_level() is above
/// scalar, so GPF_FORCE_SCALAR=1 pins the portable one.  Both give the same
/// intervals.
///
/// The suffix array is kept whole rather than sampled: at the multi-
/// megabase scale of the synthetic genomes, a sampled SA with row markers
/// costs the same 4 bytes/position as the full array, so sampling would
/// add LF-walk latency for zero memory win.
class FmIndex {
 public:
  /// Builds the index over all contigs of `reference`.
  explicit FmIndex(const Reference& reference);

  /// Backward-search extension: narrows `interval` by prepending `base`
  /// (one of A/C/G/T).  Returns an empty interval when no match survives,
  /// and {0, 0} for any other byte.
  SaInterval extend(const SaInterval& interval, char base) const;

  /// Full backward search for `pattern`; {0, 0} if absent.
  SaInterval search(std::string_view pattern) const;

  /// The interval covering every suffix (the search start state).
  SaInterval whole() const {
    return {0, static_cast<std::uint32_t>(sa_.size())};
  }

  /// Resolves the reference position of SA row `row`.  Rows landing on a
  /// contig separator return a RefPosition with contig_id == -1.
  RefPosition locate(std::uint32_t row) const;

  /// Total indexed length (including per-contig separators).
  std::size_t text_length() const { return sa_.size(); }

  const Reference& reference() const { return *reference_; }

  /// Rank data for BWT rows [64b, 64b + 64): one cache line.
  struct alignas(64) OccBlock {
    std::uint32_t count[4] = {};  // A/C/G/T in the rows before the block
    std::uint64_t mask[4] = {};   // bit r set: row 64b + r holds that base
  };

 private:
  const Reference* reference_;
  std::uint32_t c_[5] = {};  // C array: rows whose suffix starts below code c
  std::vector<OccBlock> occ_;
  // Full suffix array (see class comment for the sampling tradeoff).
  std::vector<std::uint32_t> sa_;
  // Contig boundaries in the concatenated text: cumulative start offsets.
  std::vector<std::uint64_t> contig_starts_;
};

namespace detail {

/// The indexed text of `reference` in the alphabet above: contigs in
/// order, each followed by a 0 separator.
std::vector<std::uint8_t> index_text(const Reference& reference);

/// Test oracle: the SA interval of `pattern` found by binary search over
/// `sa`, the suffix array of `text` (as index_text builds it), without the
/// BWT.  An absent pattern of A/C/G/T gives the empty interval at its
/// insertion row, which is what extend() returns; a pattern with any other
/// byte gives {0, 0}.
SaInterval sa_interval_reference(std::span<const std::uint8_t> text,
                                 std::span<const std::uint32_t> sa,
                                 std::string_view pattern);

}  // namespace detail

}  // namespace gpf::align
