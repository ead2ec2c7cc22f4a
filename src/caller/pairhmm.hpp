// Pair-HMM read-vs-haplotype likelihood (the paper: "calling variants via
// local de-novo assembly of haplotypes in an active region based on
// paired-HMM algorithm").
//
// Standard 3-state (match / insert / delete) HMM evaluated in probability
// space with per-row scaling; emission probabilities come from the base
// quality string.  This kernel dominates Caller-phase CPU exactly as the
// paper reports.
//
// The kernel is vectorized across reads: each SIMD lane evaluates one read
// of a batch that shares a haplotype, performing the scalar recurrence's
// double-precision operations in the same order, so every likelihood is
// bit-identical to detail::log10_likelihood_reference at every dispatch
// level (see EXPERIMENTS.md, "Pair-HMM").
#pragma once

#include <span>
#include <string_view>

#include "common/simd.hpp"

namespace gpf::caller {

struct PairHmmOptions {
  /// Gap-open probability (Phred ~ 45 in GATK).
  double gap_open = 1e-4;
  /// Gap-extension probability.
  double gap_extend = 0.1;
};

/// Evaluator; DP buffers are thread-local and reused across calls.
class PairHmm {
 public:
  explicit PairHmm(PairHmmOptions options = {});

  /// log10 P(read | haplotype).  `quality` is Phred+33, same length as
  /// `read`.
  double log10_likelihood(std::string_view read, std::string_view quality,
                          std::string_view haplotype) const;

  /// out[i] = log10 P(reads[i] | haplotype) for every read, bit-identical
  /// to calling log10_likelihood() once per read.  `quals[i]` is the
  /// quality string of `reads[i]`; all three spans have one entry per read.
  /// Dispatches on simd::active_level().
  void log10_likelihoods(std::span<const std::string_view> reads,
                         std::span<const std::string_view> quals,
                         std::string_view haplotype,
                         std::span<double> out) const;

 private:
  PairHmmOptions options_;
};

namespace detail {

/// log10_likelihoods at an explicit dispatch level (no higher than
/// simd::detect_level()): kScalar evaluates one read at a time, kAvx2 runs
/// the AVX2 4-lane build and kAvx512 the AVX-512 8-lane build.  Tests and
/// the perf harness use it to compare levels on one binary.
void log10_likelihoods_at(simd::Level level, const PairHmmOptions& options,
                          std::span<const std::string_view> reads,
                          std::span<const std::string_view> quals,
                          std::string_view haplotype, std::span<double> out);

/// The original one-pair scalar kernel, kept as the bit-exact oracle for
/// the differential tests and the micro-benchmark baseline.
double log10_likelihood_reference(const PairHmmOptions& options,
                                  std::string_view read,
                                  std::string_view quality,
                                  std::string_view haplotype);

}  // namespace detail
}  // namespace gpf::caller
