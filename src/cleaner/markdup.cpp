#include "cleaner/markdup.hpp"

#include <stdexcept>
#include <unordered_map>

#include "common/bytes.hpp"

namespace gpf::cleaner {
namespace {

struct SignatureHash {
  std::size_t operator()(const FragmentSignature& s) const {
    return static_cast<std::size_t>(signature_hash(s));
  }
};

constexpr std::uint32_t kDupKeyMagic = 0x4b505544;  // "DUPK"

// Delta coding in two's-complement wrapping arithmetic: every int64 value
// round-trips, and a hostile delta cannot overflow.
std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

}  // namespace

FragmentSignature fragment_signature(const SamRecord& record) {
  FragmentSignature sig;
  sig.contig_id = record.contig_id;
  sig.unclipped_start = record.unclipped_start();
  sig.reverse = record.is_reverse();
  if (record.is_paired() && !(record.flag & SamFlags::kMateUnmapped)) {
    sig.mate_contig_id = record.mate_contig_id;
    sig.mate_pos = record.mate_pos;
    sig.mate_reverse = (record.flag & SamFlags::kMateReverse) != 0;
  }
  // Canonicalize so both mates of a pair produce the same signature: order
  // the two (contig, pos, strand) endpoints.
  const bool swap =
      sig.mate_contig_id >= 0 &&
      (sig.mate_contig_id < sig.contig_id ||
       (sig.mate_contig_id == sig.contig_id &&
        sig.mate_pos < sig.unclipped_start));
  if (swap) {
    std::swap(sig.contig_id, sig.mate_contig_id);
    std::swap(sig.unclipped_start, sig.mate_pos);
    std::swap(sig.reverse, sig.mate_reverse);
  }
  return sig;
}

std::uint64_t signature_hash(const FragmentSignature& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mixin = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mixin(static_cast<std::uint64_t>(s.contig_id));
  mixin(static_cast<std::uint64_t>(s.unclipped_start));
  mixin(s.reverse ? 1 : 0);
  mixin(static_cast<std::uint64_t>(s.mate_contig_id));
  mixin(static_cast<std::uint64_t>(s.mate_pos));
  mixin(s.mate_reverse ? 2 : 0);
  return h;
}

std::int64_t base_quality_score(const SamRecord& record) {
  std::int64_t score = 0;
  for (const char q : record.quality) {
    const int phred = q - 33;
    if (phred >= 15) score += phred;  // Picard counts qualities >= 15
  }
  return score;
}

bool is_duplicate_candidate(const SamRecord& record) {
  return !record.is_unmapped() && !record.is_secondary();
}

DupKey dup_key(const SamRecord& record, std::uint32_t partition,
               std::uint64_t index) {
  return {fragment_signature(record), base_quality_score(record),
          record.qname, partition, index};
}

std::size_t decide_duplicates(std::span<const DupKey> keys,
                              std::vector<std::size_t>& marked) {
  // Group key positions by signature, remembering the best representative.
  struct Group {
    std::vector<std::size_t> members;
    std::size_t best_index = 0;
    std::int64_t best_score = -1;
  };
  std::unordered_map<FragmentSignature, Group, SignatureHash> groups;
  groups.reserve(keys.size());

  for (std::size_t i = 0; i < keys.size(); ++i) {
    Group& g = groups[keys[i].signature];
    g.members.push_back(i);
    if (keys[i].score > g.best_score) {
      g.best_score = keys[i].score;
      g.best_index = i;
    }
  }

  for (const auto& [sig, g] : groups) {
    // Representative selection is per record: the best-scoring record
    // stays, and so does any other record with its qname.
    const std::string& keep_name = keys[g.best_index].qname;
    for (const std::size_t i : g.members) {
      if (keys[i].qname != keep_name) marked.push_back(i);
    }
  }
  return groups.size();
}

MarkDuplicatesStats mark_duplicates(std::vector<SamRecord>& records) {
  MarkDuplicatesStats stats;
  stats.records = records.size();
  std::vector<DupKey> keys;
  keys.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    auto& rec = records[i];
    rec.flag &= static_cast<std::uint16_t>(~SamFlags::kDuplicate);
    if (is_duplicate_candidate(rec)) keys.push_back(dup_key(rec, 0, i));
  }
  std::vector<std::size_t> marked;
  stats.signature_groups = decide_duplicates(keys, marked);
  for (const std::size_t k : marked) {
    records[keys[k].index].flag |= SamFlags::kDuplicate;
  }
  stats.duplicates_marked = marked.size();
  return stats;
}

void encode_dup_keys(std::span<const DupKey> keys,
                     std::vector<std::uint8_t>& out) {
  ByteWriter w(std::move(out));
  w.u32(kDupKeyMagic);
  w.uvarint(keys.size());
  std::int64_t prev_start = 0;
  std::int64_t prev_partition = 0;
  std::int64_t prev_index = 0;
  for (const DupKey& k : keys) {
    const FragmentSignature& s = k.signature;
    w.u8(static_cast<std::uint8_t>((s.reverse ? 1 : 0) |
                                   (s.mate_reverse ? 2 : 0)));
    w.svarint(s.contig_id);
    w.svarint(wrap_sub(s.unclipped_start, prev_start));
    w.svarint(s.mate_contig_id);
    w.svarint(wrap_sub(s.mate_pos, s.unclipped_start));
    w.svarint(k.score);
    w.str(k.qname);
    w.svarint(wrap_sub(k.partition, prev_partition));
    w.svarint(wrap_sub(static_cast<std::int64_t>(k.index), prev_index));
    prev_start = s.unclipped_start;
    prev_partition = k.partition;
    prev_index = static_cast<std::int64_t>(k.index);
  }
  out = w.take();
}

std::vector<DupKey> decode_dup_keys(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  if (r.u32() != kDupKeyMagic) {
    throw std::invalid_argument("dup key batch: bad magic");
  }
  // Every key takes at least one byte (its strand byte), so a count larger
  // than the bytes left is malformed; checked before reserve().
  const std::uint64_t count = r.uvarint();
  if (count > r.remaining()) {
    throw std::out_of_range("dup key batch: count exceeds remaining bytes");
  }
  std::vector<DupKey> keys(count);
  std::int64_t prev_start = 0;
  std::int64_t prev_partition = 0;
  std::int64_t prev_index = 0;
  for (DupKey& k : keys) {
    FragmentSignature& s = k.signature;
    const std::uint8_t strands = r.u8();
    if (strands > 3) throw std::invalid_argument("dup key batch: bad strand");
    s.reverse = (strands & 1) != 0;
    s.mate_reverse = (strands & 2) != 0;
    s.contig_id = static_cast<std::int32_t>(r.svarint());
    s.unclipped_start = wrap_add(prev_start, r.svarint());
    s.mate_contig_id = static_cast<std::int32_t>(r.svarint());
    s.mate_pos = wrap_add(s.unclipped_start, r.svarint());
    k.score = r.svarint();
    k.qname = r.str();
    const std::int64_t partition = wrap_add(prev_partition, r.svarint());
    const std::int64_t index = wrap_add(prev_index, r.svarint());
    if (partition < 0 || partition > UINT32_MAX || index < 0) {
      throw std::invalid_argument("dup key batch: bad record position");
    }
    k.partition = static_cast<std::uint32_t>(partition);
    k.index = static_cast<std::uint64_t>(index);
    prev_start = s.unclipped_start;
    prev_partition = partition;
    prev_index = index;
  }
  if (!r.done()) throw std::invalid_argument("dup key batch: trailing bytes");
  return keys;
}

}  // namespace gpf::cleaner
