// Banded pairwise alignment with affine gap penalties and CIGAR traceback —
// the extension kernel behind the BWA-MEM-like aligner, the mate rescue, the
// hash aligner, the indel realigner and the genotyper.
//
// The kernel sweeps the band by anti-diagonals: the cells of one diagonal do
// not depend on each other, so each SIMD vector computes consecutive rows of
// a diagonal in int32 lanes (8 under AVX2).  Every lane evaluates the
// row-major recurrence's integer expressions in the same order, so scores,
// spans, mismatches and CIGARs equal the full-matrix reference DP's at every
// dispatch level (see EXPERIMENTS.md, "Banded SW").  A negative band throws
// std::invalid_argument.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/simd.hpp"
#include "formats/cigar.hpp"

namespace gpf::align {

struct ScoringScheme {
  std::int32_t match = 1;
  std::int32_t mismatch = -4;
  std::int32_t gap_open = -6;
  std::int32_t gap_extend = -1;
  /// Score for aligning anything against N (no information).
  std::int32_t n_score = -1;
};

struct AlignmentResult {
  std::int32_t score = 0;
  /// Offsets of the aligned span within query and reference.
  std::int32_t query_start = 0;
  std::int32_t query_end = 0;  // exclusive
  std::int32_t ref_start = 0;
  std::int32_t ref_end = 0;  // exclusive
  Cigar cigar;               // covers [query_start, query_end)
  /// Number of mismatching aligned bases (the NM-tag ingredient).
  std::int32_t mismatches = 0;
};

/// Global alignment of `query` against `ref` within a diagonal band of
/// half-width `band`.  Both sequences are aligned end-to-end; use this when
/// the query is expected to span the window (realignment, haplotype
/// scoring).
AlignmentResult banded_global(std::string_view query, std::string_view ref,
                              const ScoringScheme& scoring, int band);

/// Local ("glocal") alignment: the whole query against any substring of
/// `ref`, with soft-clipping of low-scoring query ends.  Used by the read
/// aligner to extend seeds.
AlignmentResult glocal(std::string_view query, std::string_view ref,
                       const ScoringScheme& scoring, int band);

namespace detail {

/// banded_global / glocal at an explicit dispatch level (no higher than
/// simd::detect_level()): kScalar runs the kernel one lane wide, kSse4 the
/// portable 4-lane build, kAvx2 the AVX2 8-lane build.  Tests use them to
/// compare every level on one binary.
AlignmentResult banded_global_at(simd::Level level, std::string_view query,
                                 std::string_view ref,
                                 const ScoringScheme& scoring, int band);
AlignmentResult glocal_at(simd::Level level, std::string_view query,
                          std::string_view ref, const ScoringScheme& scoring,
                          int band);

/// Unoptimized reference kernels: the original full-matrix Gotoh DP that
/// allocates six (m+1)x(n+1) matrices per call.  The production kernels
/// above use a reusable per-thread workspace with anti-diagonal banded
/// storage; these stay behind so the equivalence tests and the
/// perf-regression harness can check the fast path against the textbook
/// one.
AlignmentResult banded_global_reference(std::string_view query,
                                        std::string_view ref,
                                        const ScoringScheme& scoring,
                                        int band);
AlignmentResult glocal_reference(std::string_view query, std::string_view ref,
                                 const ScoringScheme& scoring, int band);

}  // namespace detail

}  // namespace gpf::align
