// Banded pairwise alignment with affine gap penalties and CIGAR traceback —
// the extension kernel behind the BWA-MEM-like aligner, the mate rescue, the
// hash aligner, the indel realigner and the genotyper.
//
// Two production kernels compute the same cells as the full-matrix
// reference DP and return its results exactly (see EXPERIMENTS.md, "Banded
// SW"):
//  * glocal / banded_global align one pair by anti-diagonals: the cells of
//    one diagonal do not depend on each other, so each SIMD vector computes
//    consecutive rows of a diagonal in int32 lanes (8 under AVX2).
//  * glocal_batch aligns many pairs at once, one per int16 lane (16 under
//    AVX2, 32 under AVX-512), each lane sweeping its own band row by row.
//    Jobs whose scores could leave int16, and groups of one shape too small
//    to fill half a vector, take the int32 kernel.
// Every lane evaluates the row-major recurrence's integer expressions in
// the same order, so scores, spans, mismatches and CIGARs equal the
// reference DP's at every dispatch level.  A negative band throws
// std::invalid_argument.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

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

/// One glocal() alignment in a batch: the whole query against any
/// substring of `ref`.  The views must outlive the glocal_batch call.
struct GlocalJob {
  std::string_view query;
  std::string_view ref;
};

/// glocal() over every job: out[k] (resized to jobs.size()) equals
/// glocal(jobs[k].query, jobs[k].ref, scoring, band).  Jobs of one
/// (query length, window length) shape run in lockstep, one per SIMD lane.
void glocal_batch(std::span<const GlocalJob> jobs,
                  const ScoringScheme& scoring, int band,
                  std::vector<AlignmentResult>& out);

namespace detail {

/// glocal_batch at an explicit dispatch level (no higher than
/// simd::detect_level()): kScalar runs one job per sweep, kAvx2 sixteen,
/// kAvx512 thirty-two.
void glocal_batch_at(simd::Level level, std::span<const GlocalJob> jobs,
                     const ScoringScheme& scoring, int band,
                     std::vector<AlignmentResult>& out);

/// Whether glocal_batch runs a job of this shape in int16 lanes; the others
/// take the int32 kernel.  Exposed so tests can cover both sides.
bool glocal_batch_fits_int16(std::size_t query_len, std::size_t window_len,
                             const ScoringScheme& scoring);

/// banded_global / glocal at an explicit dispatch level (no higher than
/// simd::detect_level()): kScalar runs the kernel one lane wide, kAvx2 and
/// kAvx512 the AVX2 8-lane build.  Tests use them to compare every level on
/// one binary.
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
