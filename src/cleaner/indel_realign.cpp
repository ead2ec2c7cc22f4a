#include "cleaner/indel_realign.hpp"

#include <algorithm>

namespace gpf::cleaner {
namespace {

bool cigar_has_indel(const Cigar& cigar) {
  for (const auto& el : cigar) {
    if (el.op == CigarOp::kInsertion || el.op == CigarOp::kDeletion) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::int32_t current_alignment_score(const SamRecord& rec,
                                     const Reference& reference,
                                     const align::ScoringScheme& scoring) {
  std::int32_t score = 0;
  std::int64_t ref_pos = rec.pos;
  std::size_t read_pos = 0;
  for (const auto& el : rec.cigar) {
    switch (el.op) {
      case CigarOp::kMatch:
      case CigarOp::kEqual:
      case CigarOp::kDiff: {
        const std::string_view ref_span =
            reference.slice(rec.contig_id, ref_pos, el.length);
        for (std::size_t i = 0; i < ref_span.size(); ++i) {
          const char rb = ref_span[i];
          const char qb = rec.sequence[read_pos + i];
          if (rb == 'N' || qb == 'N') {
            score += scoring.n_score;
          } else {
            score += rb == qb ? scoring.match : scoring.mismatch;
          }
        }
        ref_pos += el.length;
        read_pos += el.length;
        break;
      }
      case CigarOp::kInsertion:
        score += scoring.gap_open +
                 scoring.gap_extend * static_cast<std::int32_t>(el.length - 1);
        read_pos += el.length;
        break;
      case CigarOp::kDeletion:
      case CigarOp::kSkip:
        score += scoring.gap_open +
                 scoring.gap_extend * static_cast<std::int32_t>(el.length - 1);
        ref_pos += el.length;
        break;
      case CigarOp::kSoftClip:
        read_pos += el.length;
        break;
      default:
        break;
    }
  }
  return score;
}

std::vector<RealignTarget> find_realign_targets(
    std::span<const SamRecord> records,
    std::span<const VcfRecord> known_sites, const RealignOptions& options) {
  std::vector<RealignTarget> raw;

  // Observed indels from read CIGARs.
  for (const auto& rec : records) {
    if (rec.is_unmapped() || !cigar_has_indel(rec.cigar)) continue;
    std::int64_t ref_pos = rec.pos;
    for (const auto& el : rec.cigar) {
      if (el.op == CigarOp::kInsertion) {
        raw.push_back({rec.contig_id, ref_pos, ref_pos + 1});
      } else if (el.op == CigarOp::kDeletion) {
        raw.push_back({rec.contig_id, ref_pos, ref_pos + el.length});
      }
      if (consumes_reference(el.op)) ref_pos += el.length;
    }
  }
  // Known indel sites.
  for (const auto& v : known_sites) {
    if (v.is_snp()) continue;
    const auto span =
        static_cast<std::int64_t>(std::max(v.ref.size(), v.alt.size()));
    raw.push_back({v.contig_id, v.pos, v.pos + span});
  }

  std::sort(raw.begin(), raw.end(),
            [](const RealignTarget& a, const RealignTarget& b) {
              if (a.contig_id != b.contig_id) return a.contig_id < b.contig_id;
              return a.start < b.start;
            });

  // Merge targets within merge_window.
  std::vector<RealignTarget> merged;
  for (const auto& t : raw) {
    if (!merged.empty() && merged.back().contig_id == t.contig_id &&
        t.start <= merged.back().end + options.merge_window) {
      merged.back().end = std::max(merged.back().end, t.end);
    } else {
      merged.push_back(t);
    }
  }
  return merged;
}

RealignStats realign_reads(std::vector<SamRecord>& records,
                           const Reference& reference,
                           std::span<const RealignTarget> targets,
                           const RealignOptions& options) {
  RealignStats stats;
  stats.targets = targets.size();
  if (targets.empty()) return stats;

  // When no gap scores positively, no glocal alignment of a read scores
  // more than its length times the best substitution score.  The accept
  // rule needs strictly more than the current score, so a read that
  // already reaches that bound is not queued.
  const align::ScoringScheme& scoring = options.scoring;
  const bool bound_holds = scoring.gap_open <= 0 && scoring.gap_extend <= 0;
  const std::int64_t best_substitution = std::max<std::int64_t>(
      {0, scoring.match, scoring.mismatch, scoring.n_score});

  struct Candidate {
    std::size_t record;
    std::int64_t window_lo;
    std::int32_t old_score;
  };
  std::vector<Candidate> candidates;
  std::vector<align::GlocalJob> jobs;
  for (std::size_t k = 0; k < records.size(); ++k) {
    const SamRecord& rec = records[k];
    if (rec.is_unmapped() || rec.is_secondary()) continue;
    const std::int64_t lo = rec.pos;
    const std::int64_t hi = rec.end_pos();
    // Binary search the first target that could overlap.
    auto it = std::lower_bound(
        targets.begin(), targets.end(), rec,
        [](const RealignTarget& t, const SamRecord& r) {
          if (t.contig_id != r.contig_id) return t.contig_id < r.contig_id;
          return t.end <= r.pos;
        });
    if (it == targets.end() || !it->overlaps(rec.contig_id, lo, hi)) continue;
    ++stats.reads_considered;

    // Re-align the read against a window spanning read + target + flanks.
    const std::int64_t win_lo =
        std::min(lo, it->start) - options.window_flank;
    const std::int64_t win_hi = std::max(hi, it->end) + options.window_flank;
    const std::string_view window =
        reference.slice(rec.contig_id, win_lo, win_hi - win_lo);
    if (window.size() < rec.sequence.size()) continue;
    const std::int32_t old_score =
        current_alignment_score(rec, reference, scoring);
    if (bound_holds &&
        old_score >= static_cast<std::int64_t>(rec.sequence.size()) *
                         best_substitution) {
      continue;
    }
    candidates.push_back({k, std::max<std::int64_t>(0, win_lo), old_score});
    jobs.push_back({rec.sequence, window});
  }

  // One batched alignment of every queued read, then the accept rule in
  // record order; each result equals the read's own glocal() call.
  std::vector<align::AlignmentResult> results;
  align::glocal_batch(jobs, scoring, options.band, results);
  for (std::size_t j = 0; j < candidates.size(); ++j) {
    const align::AlignmentResult& r = results[j];
    if (r.cigar.empty() || r.score <= candidates[j].old_score) continue;
    SamRecord& rec = records[candidates[j].record];

    // Accept: rebuild position and CIGAR (with soft clips).
    Cigar cigar;
    if (r.query_start > 0) {
      cigar.push_back({CigarOp::kSoftClip,
                       static_cast<std::uint32_t>(r.query_start)});
    }
    cigar.insert(cigar.end(), r.cigar.begin(), r.cigar.end());
    const auto tail =
        static_cast<std::int32_t>(rec.sequence.size()) - r.query_end;
    if (tail > 0) {
      cigar.push_back({CigarOp::kSoftClip, static_cast<std::uint32_t>(tail)});
    }
    rec.cigar = std::move(cigar);
    rec.pos = candidates[j].window_lo + r.ref_start;
    ++stats.reads_realigned;
  }
  return stats;
}

}  // namespace gpf::cleaner
