// Base quality score recalibration (GATK BQSR equivalent), the paper's
// BaseRecalibrationProcess.
//
// Two passes, exactly the structure that makes BQSR expensive on a
// cluster:
//  1. CollectCovariates: every aligned base that does not overlap a known
//     variant site contributes an (observation, mismatch?) event to a
//     covariate table keyed by (read group) x reported quality x machine
//     cycle x dinucleotide context.  Tables from all partitions are merged
//     (the "Collect" action whose broadcast the paper blames for BQSR's
//     serial step).
//  2. Apply: each base's quality is replaced by the empirical quality of
//     its covariate bin, expressed as hierarchical deltas off the global
//     empirical quality, GATK-style.
//
// Apply smooths every bin once per call (RecalTable::smoothed_bins) and
// indexes the result per base, instead of taking four log10s per base in
// empirical_quality(); both evaluate the same expressions in the same
// order, so the rewritten qualities are bit-identical.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "formats/fasta.hpp"
#include "formats/sam.hpp"
#include "formats/vcf.hpp"

namespace gpf::cleaner {

/// Fast membership test for known variant positions.
class KnownSites {
 public:
  KnownSites() = default;
  explicit KnownSites(std::span<const VcfRecord> sites);

  bool contains(std::int32_t contig_id, std::int64_t pos) const;
  std::size_t size() const { return sites_.size(); }

 private:
  std::unordered_set<std::uint64_t> sites_;
};

/// Mismatch/observation counts per covariate bin.
class RecalTable {
 public:
  static constexpr int kMaxQuality = 94;   // Phred 0..93
  static constexpr int kMaxCycle = 512;    // machine cycle bins
  static constexpr int kContexts = 16;     // dinucleotide (4x4)

  RecalTable();

  /// Records one base observation.
  void observe(int reported_quality, int cycle, int context, bool mismatch);

  /// Merges another table (the distributed Collect step).
  void merge(const RecalTable& other);

  /// Empirical quality of a bin with +1/+2 smoothing; falls back through
  /// the hierarchy for empty bins.  The per-call reference that
  /// Bins::quality() reproduces.
  double empirical_quality(int reported_quality, int cycle,
                           int context) const;
  double global_empirical_quality() const;

  /// Every bin's smoothed empirical quality; an empty bin holds NaN.
  struct Bins {
    double global = 0.0;
    int cycles = 0;                          // cycle bins held, <= kMaxCycle
    std::vector<double> by_quality;          // [kMaxQuality]
    std::vector<double> by_quality_cycle;    // [kMaxQuality][cycles]
    std::vector<double> by_quality_context;  // [kMaxQuality][kContexts]

    /// Equals empirical_quality(reported_quality, cycle, context) bit for
    /// bit for any cycle below `cycles`, and for every cycle when `cycles`
    /// is kMaxCycle.
    double quality(int reported_quality, int cycle, int context) const;
  };

  /// Fills `out` for cycles [0, cycles), clamped to [1, kMaxCycle]; reuses
  /// its capacity.
  void smoothed_bins(int cycles, Bins& out) const;

  std::uint64_t total_observations() const { return total_obs_; }
  std::uint64_t total_mismatches() const { return total_mismatch_; }

  /// Serialized size in bytes (the broadcast payload the paper measures).
  std::size_t byte_size() const;

 private:
  struct Cell {
    std::uint64_t observations = 0;
    std::uint64_t mismatches = 0;
  };

  static double phred(double error_rate);

  // Marginal tables, GATK's additive-delta model.
  std::vector<Cell> by_quality_;             // [kMaxQuality]
  std::vector<Cell> by_quality_cycle_;       // [kMaxQuality][kMaxCycle]
  std::vector<Cell> by_quality_context_;     // [kMaxQuality][kContexts]
  std::uint64_t total_obs_ = 0;
  std::uint64_t total_mismatch_ = 0;
};

/// Dinucleotide context code for (previous base, current base); -1 when
/// either is N.
int dinucleotide_context(char prev, char cur);

/// Pass 1 over a batch of records.
RecalTable collect_covariates(std::span<const SamRecord> records,
                              const Reference& reference,
                              const KnownSites& known);

struct ApplyStats {
  std::uint64_t bases_adjusted = 0;
  std::uint64_t bases_seen = 0;
};

/// Pass 2: rewrites the quality strings in place.  Every base gets
/// empirical_quality(reported, cycle, context), rounded and clamped to
/// Q1..Q93.
ApplyStats apply_recalibration(std::vector<SamRecord>& records,
                               const RecalTable& table);

}  // namespace gpf::cleaner
