// Seed-and-extend read aligner in the BWA-MEM family (the paper's Aligner
// stage runs bwa-0.7.12): exact-match seeds from FM-index backward search,
// chained by diagonal, extended with banded Smith-Waterman, with
// paired-end scoring and mate rescue.
#pragma once

#include <cstdint>
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
class ReadAligner {
 public:
  ReadAligner(const FmIndex& index, AlignerOptions options = {});

  /// Aligns one read; returns an unmapped record when no candidate clears
  /// min_score.
  SamRecord align_single(const FastqRecord& read) const;

  /// Aligns a mate pair with pairing score and mate rescue; returns
  /// (first, second) records with pairing flags set.
  std::pair<SamRecord, SamRecord> align_pair(const FastqPair& pair) const;

  /// All extension candidates for a read sequence, best first.  Exposed
  /// for tests and for the SNAP-comparison bench.
  std::vector<AlignmentCandidate> candidates(const std::string& seq) const;

  const AlignerOptions& options() const { return options_; }

 private:
  struct SeedHit {
    std::int32_t contig_id;
    std::int64_t diag;  // ref_pos - query_offset
    bool reverse;
  };

  /// candidates() with the read's reverse complement already computed.
  std::vector<AlignmentCandidate> candidates(const std::string& seq,
                                             const std::string& rc) const;
  void collect_seeds(const std::string& seq, bool reverse,
                     std::vector<SeedHit>& hits) const;
  AlignmentCandidate extend_cluster(const std::string& seq,
                                    const SeedHit& anchor) const;
  /// `rc` is the reverse complement of `read.sequence`.
  SamRecord to_record(const FastqRecord& read, const std::string& rc,
                      const AlignmentCandidate& cand) const;
  /// Tries to place `seq` (reverse complement `rc`) near `anchor_pos` on
  /// `contig` with direct SW.
  AlignmentCandidate rescue(const std::string& seq, const std::string& rc,
                            std::int32_t contig_id, std::int64_t anchor_pos,
                            bool reverse) const;
  static std::uint8_t mapq_from_scores(std::int32_t best,
                                       std::int32_t second,
                                       std::int32_t max_possible);

  const FmIndex* index_;
  AlignerOptions options_;
};

}  // namespace gpf::align
