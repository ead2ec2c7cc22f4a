// Seed-and-extend read aligner in the BWA-MEM family (the paper's Aligner
// stage runs bwa-0.7.12): exact-match seeds from FM-index backward search,
// chained by diagonal, extended with banded Smith-Waterman, with
// paired-end scoring and mate rescue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "align/fm_index.hpp"
#include "align/smith_waterman.hpp"
#include "formats/fastq.hpp"
#include "formats/sam.hpp"

namespace gpf::align {

struct AlignerOptions {
  int seed_length = 19;
  /// Sample a seed every `seed_stride` query bases.
  int seed_stride = 11;
  /// Seeds with more FM hits than this are considered repetitive and
  /// skipped.
  std::uint32_t max_seed_hits = 24;
  /// How many seed clusters to extend per strand.
  int max_extensions = 4;
  int band = 16;
  /// Extra reference bases on each side of the projected read span.
  int ref_flank = 24;
  ScoringScheme scoring;
  /// Alignments scoring below this are reported unmapped.
  std::int32_t min_score = 30;
  /// Paired-end insert model used for pairing and rescue.
  double insert_mean = 350.0;
  double insert_sd = 40.0;
};

/// One scored alignment candidate for a read.
struct AlignmentCandidate {
  std::int32_t contig_id = -1;
  std::int64_t pos = -1;  // 0-based reference start
  bool reverse = false;
  std::int32_t score = 0;
  std::int32_t mismatches = 0;
  Cigar cigar;  // includes soft clips
};

/// The Aligner-stage engine.  Thread-safe: alignment is const over the
/// shared index.
///
/// Pairs align in batches of kPairsPerBatch, in phases: seed and cluster
/// every read, extend every cluster in one glocal_batch call, pair the
/// candidates, rescue unplaced mates in a second glocal_batch call, then
/// build the records.  Batching changes only how the extensions are
/// scheduled: each pair's records equal those of aligning it alone.
class ReadAligner {
 public:
  /// Pairs per batch: enough extensions to fill the SIMD lanes, few enough
  /// that a batch's buffers stay small.
  static constexpr std::size_t kPairsPerBatch = 256;

  ReadAligner(const FmIndex& index, AlignerOptions options = {});

  /// Aligns one read; returns an unmapped record when no candidate clears
  /// min_score.
  SamRecord align_single(const FastqRecord& read) const;

  /// Aligns a mate pair with pairing score and mate rescue; returns
  /// (first, second) records with pairing flags set.  The one-pair call of
  /// align_pairs.
  std::pair<SamRecord, SamRecord> align_pair(const FastqPair& pair) const;

  /// Aligns every pair and appends its (first, second) records to `out`,
  /// in input order.
  void align_pairs(std::span<const FastqPair> pairs,
                   std::vector<SamRecord>& out) const;

  const AlignerOptions& options() const { return options_; }

 private:
  struct SeedHit {
    std::int32_t contig_id;
    std::int64_t diag;  // ref_pos - query_offset
    bool reverse;
  };
  /// One read of a batch: its sequence and reverse complement.
  struct ReadView {
    const std::string* seq;
    const std::string* rc;
  };
  /// A glocal job's placement: the aligned read's contig, strand and the
  /// window's reference start.
  struct Placement {
    std::int32_t contig_id;
    bool reverse;
    std::int64_t start;
  };

  /// Every read's extension candidates that clear min_score, best first.
  void extend_reads(std::span<const ReadView> reads,
                    std::vector<std::vector<AlignmentCandidate>>& cands) const;
  void collect_seeds(const std::string& seq, bool reverse,
                     std::vector<SeedHit>& hits) const;
  /// The most-voted seed clusters of a read, one representative hit each.
  void rank_clusters(const std::string& seq, const std::string& rc,
                     std::vector<SeedHit>& anchors) const;
  /// The alignment `r` of a `read_len`-base read as a candidate, with soft
  /// clips for the unaligned ends.
  static AlignmentCandidate to_candidate(const AlignmentResult& r,
                                         const Placement& at,
                                         std::size_t read_len);
  /// `rc` is the reverse complement of `read.sequence`.
  SamRecord to_record(const FastqRecord& read, const std::string& rc,
                      const AlignmentCandidate& cand) const;
  static std::uint8_t mapq_from_scores(std::int32_t best,
                                       std::int32_t second,
                                       std::int32_t max_possible);
  void align_batch(std::span<const FastqPair> pairs,
                   std::vector<SamRecord>& out) const;

  const FmIndex* index_;
  AlignerOptions options_;
};

}  // namespace gpf::align
