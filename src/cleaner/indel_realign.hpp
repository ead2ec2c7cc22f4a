// Local indel realignment (GATK IndelRealigner equivalent): two passes —
// RealignerTargetCreator finds intervals around observed/known indels,
// then reads overlapping each interval are re-aligned against the local
// reference window with a wider band, accepting the new alignment when it
// scores better.  This cleans up alignment artifacts around indels before
// calling.
//
// realign_reads queues every considered read's (read, window) pair and
// aligns them all in one align::glocal_batch call, then applies the accept
// rule in record order.  A read whose current score already reaches the
// glocal upper bound (length x best substitution score, valid when gaps
// score <= 0) cannot be beaten and is not queued.  Records and stats equal
// those of one glocal() call per considered read.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "align/smith_waterman.hpp"
#include "formats/fasta.hpp"
#include "formats/sam.hpp"
#include "formats/vcf.hpp"

namespace gpf::cleaner {

/// A genomic interval targeted for realignment.
struct RealignTarget {
  std::int32_t contig_id = -1;
  std::int64_t start = 0;
  std::int64_t end = 0;  // exclusive

  bool overlaps(std::int32_t contig, std::int64_t lo, std::int64_t hi) const {
    return contig == contig_id && lo < end && hi > start;
  }
};

struct RealignOptions {
  /// Targets closer than this are merged.
  std::int64_t merge_window = 50;
  /// Reference flank added around each target when re-aligning.
  std::int64_t window_flank = 60;
  /// Band half-width for the realignment DP (wider than the aligner's so
  /// shifted indels can be recovered).
  int band = 24;
  align::ScoringScheme scoring;
};

/// Pass 1: derive sorted, merged target intervals from reads whose CIGAR
/// contains indels plus known indel sites.
std::vector<RealignTarget> find_realign_targets(
    std::span<const SamRecord> records,
    std::span<const VcfRecord> known_sites, const RealignOptions& options);

/// Alignment score of a record against the reference under `scoring`,
/// derived from its CIGAR and sequence (soft clips cost nothing but also
/// score nothing): the score a realignment has to beat.
std::int32_t current_alignment_score(const SamRecord& rec,
                                     const Reference& reference,
                                     const align::ScoringScheme& scoring);

struct RealignStats {
  std::size_t targets = 0;
  std::size_t reads_considered = 0;
  std::size_t reads_realigned = 0;
};

/// Pass 2: realigns reads overlapping the targets in place.  A read is
/// considered when it overlaps a target; it is realigned when its glocal
/// alignment against the target window scores strictly more than its
/// current CIGAR.
RealignStats realign_reads(std::vector<SamRecord>& records,
                           const Reference& reference,
                           std::span<const RealignTarget> targets,
                           const RealignOptions& options);

}  // namespace gpf::cleaner
