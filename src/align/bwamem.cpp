#include "align/bwamem.hpp"

#include <algorithm>
#include <cmath>

namespace gpf::align {
namespace {

/// Reverse-complement helper local to the aligner (simdata provides the
/// canonical implementation; we keep alignment self-contained).
std::string revcomp(std::string_view seq) {
  std::string out(seq.size(), 'N');
  for (std::size_t i = 0; i < seq.size(); ++i) {
    switch (seq[seq.size() - 1 - i]) {
      case 'A':
        out[i] = 'T';
        break;
      case 'T':
        out[i] = 'A';
        break;
      case 'C':
        out[i] = 'G';
        break;
      case 'G':
        out[i] = 'C';
        break;
      default:
        out[i] = 'N';
    }
  }
  return out;
}

}  // namespace

ReadAligner::ReadAligner(const FmIndex& index, AlignerOptions options)
    : index_(&index), options_(options) {}

void ReadAligner::collect_seeds(const std::string& seq, bool reverse,
                                std::vector<SeedHit>& hits) const {
  const int len = static_cast<int>(seq.size());
  if (len < options_.seed_length) return;
  for (int offset = 0; offset + options_.seed_length <= len;
       offset += options_.seed_stride) {
    const std::string_view seed(seq.data() + offset,
                                static_cast<std::size_t>(
                                    options_.seed_length));
    const SaInterval iv = index_->search(seed);
    if (iv.empty() || iv.size() > options_.max_seed_hits) continue;
    for (std::uint32_t row = iv.lo; row < iv.hi; ++row) {
      const RefPosition rp = index_->locate(row);
      if (rp.contig_id < 0) continue;
      hits.push_back({rp.contig_id, rp.offset - offset, reverse});
    }
  }
}

AlignmentCandidate ReadAligner::extend_cluster(const std::string& seq,
                                               const SeedHit& anchor) const {
  const Reference& ref = index_->reference();
  const auto read_len = static_cast<std::int64_t>(seq.size());
  const std::int64_t win_start = anchor.diag - options_.ref_flank;
  const std::int64_t win_len = read_len + 2 * options_.ref_flank;
  const std::string_view window =
      ref.slice(anchor.contig_id, win_start, win_len);
  if (window.size() < static_cast<std::size_t>(options_.seed_length)) {
    return {};
  }
  const std::int64_t effective_start = std::max<std::int64_t>(0, win_start);

  const AlignmentResult r =
      glocal(seq, window, options_.scoring, options_.band);
  if (r.cigar.empty()) return {};

  AlignmentCandidate cand;
  cand.contig_id = anchor.contig_id;
  cand.reverse = anchor.reverse;
  cand.score = r.score;
  cand.mismatches = r.mismatches;
  cand.pos = effective_start + r.ref_start;
  // Add soft clips for the unaligned query ends.
  Cigar cigar;
  if (r.query_start > 0) {
    cigar.push_back({CigarOp::kSoftClip,
                     static_cast<std::uint32_t>(r.query_start)});
  }
  cigar.insert(cigar.end(), r.cigar.begin(), r.cigar.end());
  const auto tail = static_cast<std::int32_t>(seq.size()) - r.query_end;
  if (tail > 0) {
    cigar.push_back({CigarOp::kSoftClip, static_cast<std::uint32_t>(tail)});
  }
  cand.cigar = std::move(cigar);
  return cand;
}

std::vector<AlignmentCandidate> ReadAligner::candidates(
    const std::string& seq) const {
  return candidates(seq, revcomp(seq));
}

std::vector<AlignmentCandidate> ReadAligner::candidates(
    const std::string& seq, const std::string& rc) const {
  thread_local std::vector<SeedHit> hits;
  hits.clear();
  collect_seeds(seq, /*reverse=*/false, hits);
  collect_seeds(rc, /*reverse=*/true, hits);

  // Cluster hits by (strand, contig, coarse diagonal) and count votes.
  // Sorting (key, hit index) pairs groups each cluster in key order with
  // its first hit leading, which is the cluster's representative.
  struct ClusterKey {
    bool reverse;
    std::int32_t contig_id;
    std::int64_t diag_bucket;
    auto operator<=>(const ClusterKey&) const = default;
  };
  thread_local std::vector<std::pair<ClusterKey, std::uint32_t>> keyed;
  keyed.clear();
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const SeedHit& h = hits[i];
    keyed.emplace_back(ClusterKey{h.reverse, h.contig_id, h.diag / 8},
                       static_cast<std::uint32_t>(i));
  }
  std::sort(keyed.begin(), keyed.end());
  // Extend the most-voted clusters.
  std::vector<std::pair<int, SeedHit>> ranked;
  for (std::size_t i = 0; i < keyed.size();) {
    std::size_t end = i + 1;
    while (end < keyed.size() && keyed[end].first == keyed[i].first) ++end;
    ranked.emplace_back(static_cast<int>(end - i), hits[keyed[i].second]);
    i = end;
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  if (ranked.size() > static_cast<std::size_t>(options_.max_extensions)) {
    ranked.resize(static_cast<std::size_t>(options_.max_extensions));
  }

  std::vector<AlignmentCandidate> cands;
  for (const auto& [votes, anchor] : ranked) {
    const std::string& oriented = anchor.reverse ? rc : seq;
    AlignmentCandidate c = extend_cluster(oriented, anchor);
    if (c.contig_id >= 0 && c.score >= options_.min_score) {
      cands.push_back(std::move(c));
    }
  }
  std::stable_sort(cands.begin(), cands.end(),
                   [](const AlignmentCandidate& a,
                      const AlignmentCandidate& b) {
                     return a.score > b.score;
                   });
  return cands;
}

std::uint8_t ReadAligner::mapq_from_scores(std::int32_t best,
                                           std::int32_t second,
                                           std::int32_t max_possible) {
  if (best <= 0) return 0;
  if (second <= 0) {
    // Unique hit: scale by how close to a perfect score it is.
    const double frac =
        static_cast<double>(best) / static_cast<double>(max_possible);
    return static_cast<std::uint8_t>(std::clamp(60.0 * frac, 20.0, 60.0));
  }
  const double gap = static_cast<double>(best - second) /
                     static_cast<double>(best);
  return static_cast<std::uint8_t>(std::clamp(80.0 * gap, 0.0, 60.0));
}

SamRecord ReadAligner::to_record(const FastqRecord& read,
                                 const std::string& rc,
                                 const AlignmentCandidate& cand) const {
  SamRecord rec;
  rec.qname = read.name;
  if (cand.contig_id < 0) {
    rec.flag = SamFlags::kUnmapped;
    rec.sequence = read.sequence;
    rec.quality = read.quality;
    return rec;
  }
  rec.contig_id = cand.contig_id;
  rec.pos = cand.pos;
  rec.cigar = cand.cigar;
  if (cand.reverse) {
    rec.flag |= SamFlags::kReverse;
    rec.sequence = rc;
    rec.quality.assign(read.quality.rbegin(), read.quality.rend());
  } else {
    rec.sequence = read.sequence;
    rec.quality = read.quality;
  }
  return rec;
}

SamRecord ReadAligner::align_single(const FastqRecord& read) const {
  const std::string rc = revcomp(read.sequence);
  const auto cands = candidates(read.sequence, rc);
  if (cands.empty()) {
    AlignmentCandidate none;
    return to_record(read, rc, none);
  }
  SamRecord rec = to_record(read, rc, cands[0]);
  const std::int32_t second = cands.size() > 1 ? cands[1].score : 0;
  rec.mapq = mapq_from_scores(
      cands[0].score, second,
      static_cast<std::int32_t>(read.sequence.size()) *
          options_.scoring.match);
  return rec;
}

AlignmentCandidate ReadAligner::rescue(const std::string& seq,
                                       const std::string& rc,
                                       std::int32_t contig_id,
                                       std::int64_t anchor_pos,
                                       bool reverse) const {
  const Reference& ref = index_->reference();
  const auto window_half = static_cast<std::int64_t>(
      options_.insert_mean + 4.0 * options_.insert_sd);
  const std::int64_t start = anchor_pos - window_half;
  const std::string_view window =
      ref.slice(contig_id, start, 2 * window_half);
  if (window.size() < seq.size()) return {};
  const std::string& oriented = reverse ? rc : seq;
  const AlignmentResult r =
      glocal(oriented, window, options_.scoring, options_.band);
  if (r.cigar.empty() || r.score < options_.min_score) return {};
  AlignmentCandidate cand;
  cand.contig_id = contig_id;
  cand.reverse = reverse;
  cand.score = r.score;
  cand.mismatches = r.mismatches;
  cand.pos = std::max<std::int64_t>(0, start) + r.ref_start;
  Cigar cigar;
  if (r.query_start > 0) {
    cigar.push_back({CigarOp::kSoftClip,
                     static_cast<std::uint32_t>(r.query_start)});
  }
  cigar.insert(cigar.end(), r.cigar.begin(), r.cigar.end());
  const auto tail = static_cast<std::int32_t>(oriented.size()) - r.query_end;
  if (tail > 0) {
    cigar.push_back({CigarOp::kSoftClip, static_cast<std::uint32_t>(tail)});
  }
  cand.cigar = std::move(cigar);
  return cand;
}

std::pair<SamRecord, SamRecord> ReadAligner::align_pair(
    const FastqPair& pair) const {
  const std::string rc1 = revcomp(pair.first.sequence);
  const std::string rc2 = revcomp(pair.second.sequence);
  auto cands1 = candidates(pair.first.sequence, rc1);
  auto cands2 = candidates(pair.second.sequence, rc2);

  // Score all cross-combinations with an insert-size prior; proper pairs
  // are forward/reverse on the same contig within the insert window.
  const double max_insert = options_.insert_mean + 6.0 * options_.insert_sd;
  double best_pair_score = -1.0;
  int best_i = -1, best_j = -1;
  for (std::size_t i = 0; i < cands1.size(); ++i) {
    for (std::size_t j = 0; j < cands2.size(); ++j) {
      const auto& a = cands1[i];
      const auto& b = cands2[j];
      if (a.contig_id != b.contig_id || a.reverse == b.reverse) continue;
      const std::int64_t insert = std::abs(a.pos - b.pos) +
                                  static_cast<std::int64_t>(
                                      pair.first.sequence.size());
      if (static_cast<double>(insert) > max_insert) continue;
      const double z = (static_cast<double>(insert) - options_.insert_mean) /
                       options_.insert_sd;
      const double score =
          static_cast<double>(a.score + b.score) - 0.5 * z * z;
      if (score > best_pair_score) {
        best_pair_score = score;
        best_i = static_cast<int>(i);
        best_j = static_cast<int>(j);
      }
    }
  }

  AlignmentCandidate c1 = cands1.empty() ? AlignmentCandidate{} : cands1[0];
  AlignmentCandidate c2 = cands2.empty() ? AlignmentCandidate{} : cands2[0];
  bool proper = false;
  if (best_i >= 0) {
    c1 = cands1[static_cast<std::size_t>(best_i)];
    c2 = cands2[static_cast<std::size_t>(best_j)];
    proper = true;
  } else {
    // Mate rescue: anchor on whichever mate aligned and search the insert
    // window for the other.
    if (c1.contig_id >= 0 && c2.contig_id < 0) {
      const AlignmentCandidate r =
          rescue(pair.second.sequence, rc2, c1.contig_id, c1.pos,
                 !c1.reverse);
      if (r.contig_id >= 0) {
        c2 = r;
        proper = true;
      }
    } else if (c2.contig_id >= 0 && c1.contig_id < 0) {
      const AlignmentCandidate r =
          rescue(pair.first.sequence, rc1, c2.contig_id, c2.pos,
                 !c2.reverse);
      if (r.contig_id >= 0) {
        c1 = r;
        proper = true;
      }
    }
  }

  SamRecord r1 = to_record(pair.first, rc1, c1);
  SamRecord r2 = to_record(pair.second, rc2, c2);
  const auto perfect1 = static_cast<std::int32_t>(
      pair.first.sequence.size() * options_.scoring.match);
  const auto perfect2 = static_cast<std::int32_t>(
      pair.second.sequence.size() * options_.scoring.match);
  r1.mapq = mapq_from_scores(
      c1.score, cands1.size() > 1 ? cands1[1].score : 0, perfect1);
  r2.mapq = mapq_from_scores(
      c2.score, cands2.size() > 1 ? cands2[1].score : 0, perfect2);

  // Pairing flags and mate info.
  r1.flag |= SamFlags::kPaired | SamFlags::kFirstOfPair;
  r2.flag |= SamFlags::kPaired | SamFlags::kSecondOfPair;
  if (r2.is_unmapped()) r1.flag |= SamFlags::kMateUnmapped;
  if (r1.is_unmapped()) r2.flag |= SamFlags::kMateUnmapped;
  if (r2.is_reverse()) r1.flag |= SamFlags::kMateReverse;
  if (r1.is_reverse()) r2.flag |= SamFlags::kMateReverse;
  if (proper && !r1.is_unmapped() && !r2.is_unmapped()) {
    r1.flag |= SamFlags::kProperPair;
    r2.flag |= SamFlags::kProperPair;
  }
  r1.mate_contig_id = r2.contig_id;
  r1.mate_pos = r2.pos;
  r2.mate_contig_id = r1.contig_id;
  r2.mate_pos = r1.pos;
  if (!r1.is_unmapped() && !r2.is_unmapped() &&
      r1.contig_id == r2.contig_id) {
    const std::int64_t lo = std::min(r1.pos, r2.pos);
    const std::int64_t hi = std::max(r1.end_pos(), r2.end_pos());
    const std::int64_t span = hi - lo;
    r1.tlen = r1.pos <= r2.pos ? span : -span;
    r2.tlen = -r1.tlen;
  }
  return {std::move(r1), std::move(r2)};
}

}  // namespace gpf::align
