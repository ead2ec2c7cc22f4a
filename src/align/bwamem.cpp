#include "align/bwamem.hpp"

#include <algorithm>
#include <cmath>

#include "formats/fasta.hpp"

namespace gpf::align {

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

void ReadAligner::rank_clusters(const std::string& seq, const std::string& rc,
                                std::vector<SeedHit>& anchors) const {
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
  thread_local std::vector<std::pair<int, SeedHit>> ranked;
  ranked.clear();
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
  anchors.clear();
  for (const auto& [votes, anchor] : ranked) anchors.push_back(anchor);
}

AlignmentCandidate ReadAligner::to_candidate(const AlignmentResult& r,
                                             const Placement& at,
                                             std::size_t read_len) {
  AlignmentCandidate cand;
  cand.contig_id = at.contig_id;
  cand.reverse = at.reverse;
  cand.score = r.score;
  cand.mismatches = r.mismatches;
  cand.pos = at.start + r.ref_start;
  // Add soft clips for the unaligned query ends.
  Cigar cigar;
  if (r.query_start > 0) {
    cigar.push_back({CigarOp::kSoftClip,
                     static_cast<std::uint32_t>(r.query_start)});
  }
  cigar.insert(cigar.end(), r.cigar.begin(), r.cigar.end());
  const auto tail = static_cast<std::int32_t>(read_len) - r.query_end;
  if (tail > 0) {
    cigar.push_back({CigarOp::kSoftClip, static_cast<std::uint32_t>(tail)});
  }
  cand.cigar = std::move(cigar);
  return cand;
}

void ReadAligner::extend_reads(
    std::span<const ReadView> reads,
    std::vector<std::vector<AlignmentCandidate>>& cands) const {
  // Seed and cluster every read, queueing one job per cluster: the read
  // against its projected span plus ref_flank on each side.
  const Reference& ref = index_->reference();
  std::vector<GlocalJob> jobs;
  std::vector<Placement> placed;
  std::vector<std::size_t> first(reads.size() + 1);
  std::vector<SeedHit> anchors;
  for (std::size_t r = 0; r < reads.size(); ++r) {
    first[r] = jobs.size();
    rank_clusters(*reads[r].seq, *reads[r].rc, anchors);
    for (const SeedHit& anchor : anchors) {
      const std::string& oriented =
          anchor.reverse ? *reads[r].rc : *reads[r].seq;
      const std::int64_t win_start = anchor.diag - options_.ref_flank;
      const std::int64_t win_len =
          static_cast<std::int64_t>(oriented.size()) + 2 * options_.ref_flank;
      const std::string_view window =
          ref.slice(anchor.contig_id, win_start, win_len);
      if (window.size() < static_cast<std::size_t>(options_.seed_length)) {
        continue;
      }
      jobs.push_back({oriented, window});
      placed.push_back({anchor.contig_id, anchor.reverse,
                        std::max<std::int64_t>(0, win_start)});
    }
  }
  first[reads.size()] = jobs.size();

  std::vector<AlignmentResult> results;
  glocal_batch(jobs, options_.scoring, options_.band, results);

  cands.resize(reads.size());
  for (std::size_t r = 0; r < reads.size(); ++r) {
    auto& out = cands[r];
    out.clear();
    for (std::size_t k = first[r]; k < first[r + 1]; ++k) {
      const AlignmentResult& res = results[k];
      if (res.cigar.empty() || res.score < options_.min_score) continue;
      out.push_back(to_candidate(res, placed[k], jobs[k].query.size()));
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const AlignmentCandidate& a,
                        const AlignmentCandidate& b) {
                       return a.score > b.score;
                     });
  }
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
  const std::string rc = reverse_complement(read.sequence);
  const ReadView view{&read.sequence, &rc};
  std::vector<std::vector<AlignmentCandidate>> cands;
  extend_reads(std::span(&view, 1), cands);
  const auto& c = cands[0];
  if (c.empty()) {
    AlignmentCandidate none;
    return to_record(read, rc, none);
  }
  SamRecord rec = to_record(read, rc, c[0]);
  const std::int32_t second = c.size() > 1 ? c[1].score : 0;
  rec.mapq = mapq_from_scores(
      c[0].score, second,
      static_cast<std::int32_t>(read.sequence.size()) *
          options_.scoring.match);
  return rec;
}

std::pair<SamRecord, SamRecord> ReadAligner::align_pair(
    const FastqPair& pair) const {
  std::vector<SamRecord> out;
  align_pairs(std::span(&pair, 1), out);
  return {std::move(out[0]), std::move(out[1])};
}

void ReadAligner::align_pairs(std::span<const FastqPair> pairs,
                              std::vector<SamRecord>& out) const {
  out.reserve(out.size() + 2 * pairs.size());
  for (std::size_t at = 0; at < pairs.size(); at += kPairsPerBatch) {
    align_batch(
        pairs.subspan(at, std::min(kPairsPerBatch, pairs.size() - at)), out);
  }
}

void ReadAligner::align_batch(std::span<const FastqPair> pairs,
                              std::vector<SamRecord>& out) const {
  // Phases 1-2: seed, cluster and extend both mates of every pair.  Reads
  // 2p and 2p + 1 are pair p's mates.
  const std::size_t n = pairs.size();
  std::vector<std::string> rc(2 * n);
  std::vector<ReadView> reads(2 * n);
  for (std::size_t p = 0; p < n; ++p) {
    rc[2 * p] = reverse_complement(pairs[p].first.sequence);
    rc[2 * p + 1] = reverse_complement(pairs[p].second.sequence);
    reads[2 * p] = {&pairs[p].first.sequence, &rc[2 * p]};
    reads[2 * p + 1] = {&pairs[p].second.sequence, &rc[2 * p + 1]};
  }
  std::vector<std::vector<AlignmentCandidate>> cands;
  extend_reads(reads, cands);

  // Phase 3: score all cross-combinations with an insert-size prior;
  // proper pairs are forward/reverse on the same contig within the insert
  // window.  Where none pairs and only one mate aligned, queue a rescue:
  // the other mate against the insert window around the aligned one.
  struct Chosen {
    AlignmentCandidate c1, c2;
    bool proper = false;
  };
  std::vector<Chosen> chosen(n);
  std::vector<GlocalJob> rescue_jobs;
  std::vector<Placement> rescue_at;
  std::vector<std::size_t> rescue_read;  // the rescued mate's read index
  const Reference& ref = index_->reference();
  const double max_insert = options_.insert_mean + 6.0 * options_.insert_sd;
  const auto window_half = static_cast<std::int64_t>(
      options_.insert_mean + 4.0 * options_.insert_sd);
  for (std::size_t p = 0; p < n; ++p) {
    const FastqPair& pair = pairs[p];
    const auto& cands1 = cands[2 * p];
    const auto& cands2 = cands[2 * p + 1];
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
        const double z =
            (static_cast<double>(insert) - options_.insert_mean) /
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

    Chosen& c = chosen[p];
    if (!cands1.empty()) c.c1 = cands1[0];
    if (!cands2.empty()) c.c2 = cands2[0];
    if (best_i >= 0) {
      c.c1 = cands1[static_cast<std::size_t>(best_i)];
      c.c2 = cands2[static_cast<std::size_t>(best_j)];
      c.proper = true;
      continue;
    }
    const bool rescue_second = c.c1.contig_id >= 0 && c.c2.contig_id < 0;
    const bool rescue_first = c.c2.contig_id >= 0 && c.c1.contig_id < 0;
    if (!rescue_second && !rescue_first) continue;
    const AlignmentCandidate& anchor = rescue_second ? c.c1 : c.c2;
    const std::size_t read = rescue_second ? 2 * p + 1 : 2 * p;
    const std::int64_t start = anchor.pos - window_half;
    const std::string_view window =
        ref.slice(anchor.contig_id, start, 2 * window_half);
    if (window.size() < reads[read].seq->size()) continue;
    const bool reverse = !anchor.reverse;
    rescue_jobs.push_back(
        {reverse ? *reads[read].rc : *reads[read].seq, window});
    rescue_at.push_back(
        {anchor.contig_id, reverse, std::max<std::int64_t>(0, start)});
    rescue_read.push_back(read);
  }

  // Phase 4: every rescue in one batch.
  std::vector<AlignmentResult> rescued;
  glocal_batch(rescue_jobs, options_.scoring, options_.band, rescued);
  for (std::size_t k = 0; k < rescue_jobs.size(); ++k) {
    const AlignmentResult& res = rescued[k];
    if (res.cigar.empty() || res.score < options_.min_score) continue;
    Chosen& c = chosen[rescue_read[k] / 2];
    (rescue_read[k] % 2 == 0 ? c.c1 : c.c2) =
        to_candidate(res, rescue_at[k], rescue_jobs[k].query.size());
    c.proper = true;
  }

  // Phase 5: the records, with MAPQ, pairing flags and mate info.
  for (std::size_t p = 0; p < n; ++p) {
    const FastqPair& pair = pairs[p];
    const Chosen& c = chosen[p];
    const auto& cands1 = cands[2 * p];
    const auto& cands2 = cands[2 * p + 1];
    SamRecord r1 = to_record(pair.first, rc[2 * p], c.c1);
    SamRecord r2 = to_record(pair.second, rc[2 * p + 1], c.c2);
    const auto perfect1 = static_cast<std::int32_t>(
        pair.first.sequence.size() * options_.scoring.match);
    const auto perfect2 = static_cast<std::int32_t>(
        pair.second.sequence.size() * options_.scoring.match);
    r1.mapq = mapq_from_scores(
        c.c1.score, cands1.size() > 1 ? cands1[1].score : 0, perfect1);
    r2.mapq = mapq_from_scores(
        c.c2.score, cands2.size() > 1 ? cands2[1].score : 0, perfect2);

    r1.flag |= SamFlags::kPaired | SamFlags::kFirstOfPair;
    r2.flag |= SamFlags::kPaired | SamFlags::kSecondOfPair;
    if (r2.is_unmapped()) r1.flag |= SamFlags::kMateUnmapped;
    if (r1.is_unmapped()) r2.flag |= SamFlags::kMateUnmapped;
    if (r2.is_reverse()) r1.flag |= SamFlags::kMateReverse;
    if (r1.is_reverse()) r2.flag |= SamFlags::kMateReverse;
    if (c.proper && !r1.is_unmapped() && !r2.is_unmapped()) {
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
    out.push_back(std::move(r1));
    out.push_back(std::move(r2));
  }
}

}  // namespace gpf::align
