#include "align/hash_aligner.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace gpf::align {
namespace {

constexpr std::uint64_t kNoKmer = ~0ULL;

std::uint64_t encode_base(char c) {
  switch (c) {
    case 'A':
      return 0;
    case 'C':
      return 1;
    case 'G':
      return 2;
    case 'T':
      return 3;
    default:
      return kNoKmer;
  }
}

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

std::uint64_t HashAligner::kmer_at(std::string_view seq,
                                   std::size_t offset) const {
  if (offset + static_cast<std::size_t>(options_.kmer_length) > seq.size()) {
    return kNoKmer;
  }
  std::uint64_t k = 0;
  for (int i = 0; i < options_.kmer_length; ++i) {
    const std::uint64_t b = encode_base(seq[offset + i]);
    if (b == kNoKmer) return kNoKmer;
    k = (k << 2) | b;
  }
  return k;
}

HashAligner::HashAligner(const Reference& reference,
                         HashAlignerOptions options)
    : reference_(&reference), options_(options) {
  if (options_.kmer_length < 8 || options_.kmer_length > 31) {
    throw std::invalid_argument("kmer_length must be in [8, 31]");
  }
  // Pass 1: collect (kmer, location) for every stride-th position.
  struct Entry {
    std::uint64_t kmer;
    Location loc;
  };
  std::vector<Entry> entries;
  for (std::size_t cid = 0; cid < reference.contig_count(); ++cid) {
    const std::string& seq =
        reference.contig(static_cast<std::int32_t>(cid)).sequence;
    for (std::size_t pos = 0;
         pos + static_cast<std::size_t>(options_.kmer_length) <= seq.size();
         pos += static_cast<std::size_t>(options_.index_stride)) {
      const std::uint64_t k = kmer_at(seq, pos);
      if (k == kNoKmer) continue;
      entries.push_back({k, {static_cast<std::int32_t>(cid),
                             static_cast<std::int64_t>(pos)}});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.kmer < b.kmer; });

  // Pass 2: open-addressing table over distinct kmers.
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i == 0 || entries[i].kmer != entries[i - 1].kmer) ++distinct;
  }
  std::size_t table = 16;
  while (table < distinct * 2) table <<= 1;
  keys_.assign(table, kEmpty);
  buckets_.assign(table, {0, 0});
  locations_.reserve(entries.size());

  std::size_t i = 0;
  while (i < entries.size()) {
    std::size_t j = i;
    while (j < entries.size() && entries[j].kmer == entries[i].kmer) ++j;
    const auto begin = static_cast<std::uint32_t>(locations_.size());
    // Repetitive kmers are dropped entirely (SNAP's overflow policy).
    if (j - i <= options_.max_hits) {
      for (std::size_t e = i; e < j; ++e) {
        locations_.push_back(entries[e].loc);
      }
      const auto end = static_cast<std::uint32_t>(locations_.size());
      std::size_t slot = mix(entries[i].kmer) & (table - 1);
      while (keys_[slot] != kEmpty) slot = (slot + 1) & (table - 1);
      keys_[slot] = entries[i].kmer;
      buckets_[slot] = {begin, end};
    }
    i = j;
  }
}

std::vector<HashAligner::Location> HashAligner::lookup(
    std::uint64_t kmer) const {
  std::vector<Location> out;
  if (kmer == kNoKmer || keys_.empty()) return out;
  std::size_t slot = mix(kmer) & (keys_.size() - 1);
  while (keys_[slot] != kEmpty) {
    if (keys_[slot] == kmer) {
      const auto [b, e] = buckets_[slot];
      out.assign(locations_.begin() + b, locations_.begin() + e);
      return out;
    }
    slot = (slot + 1) & (keys_.size() - 1);
  }
  return out;
}

std::size_t HashAligner::index_bytes() const {
  return keys_.size() * sizeof(std::uint64_t) +
         buckets_.size() * sizeof(buckets_[0]) +
         locations_.size() * sizeof(Location);
}

SamRecord HashAligner::align(const FastqRecord& read) const {
  struct Vote {
    int count = 0;
  };
  // diagonal voting per (strand, contig, diag bucket)
  std::map<std::tuple<bool, std::int32_t, std::int64_t>, Vote> votes;

  const std::string rc = reverse_complement(read.sequence);
  const int len = static_cast<int>(read.sequence.size());
  // Odd stride so consecutive seeds alternate position parity — with a
  // strided index an even stride would make whole reads invisible.
  const int stride = std::max(
      1,
      ((len - options_.kmer_length) / std::max(1, options_.seeds_per_read)) |
          1);
  for (int strand = 0; strand < 2; ++strand) {
    const std::string& seq = strand == 0 ? read.sequence : rc;
    for (int off = 0; off + options_.kmer_length <= len; off += stride) {
      const auto locs =
          lookup(kmer_at(seq, static_cast<std::size_t>(off)));
      if (locs.size() > options_.max_hits) continue;
      for (const auto& loc : locs) {
        const std::int64_t diag = loc.pos - off;
        ++votes[{strand == 1, loc.contig_id, diag / 8}].count;
      }
    }
  }

  // Extend the top-voted diagonal.
  int best_votes = 0;
  std::tuple<bool, std::int32_t, std::int64_t> best_key{};
  for (const auto& [key, v] : votes) {
    if (v.count > best_votes) {
      best_votes = v.count;
      best_key = key;
    }
  }

  SamRecord rec;
  rec.qname = read.name;
  rec.sequence = read.sequence;
  rec.quality = read.quality;
  if (best_votes == 0) {
    rec.flag = SamFlags::kUnmapped;
    return rec;
  }
  const auto [reverse, contig_id, diag_bucket] = best_key;
  const std::int64_t diag = diag_bucket * 8;
  constexpr int kFlank = 24;
  const std::string_view window = reference_->slice(
      contig_id, diag - kFlank, len + 2 * kFlank + 8);
  const std::string& oriented = reverse ? rc : read.sequence;
  const AlignmentResult r =
      glocal(oriented, window, options_.scoring, options_.band);
  if (r.cigar.empty() || r.score < options_.min_score) {
    rec.flag = SamFlags::kUnmapped;
    return rec;
  }
  rec.contig_id = contig_id;
  rec.pos = std::max<std::int64_t>(0, diag - kFlank) + r.ref_start;
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
  rec.cigar = std::move(cigar);
  if (reverse) {
    rec.flag |= SamFlags::kReverse;
    rec.sequence = rc;
    rec.quality.assign(read.quality.rbegin(), read.quality.rend());
  }
  rec.mapq = static_cast<std::uint8_t>(
      std::clamp(best_votes * 10, 10, 60));
  return rec;
}

}  // namespace gpf::align
