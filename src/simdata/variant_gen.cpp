#include "simdata/variant_gen.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"

namespace gpf::simdata {
namespace {

const char kBases[] = {'A', 'C', 'G', 'T'};

char random_base(Rng& rng) { return kBases[rng.below(4)]; }

char random_other_base(Rng& rng, char not_this) {
  for (;;) {
    const char c = random_base(rng);
    if (c != not_this) return c;
  }
}

std::string random_insertion(Rng& rng, int max_len) {
  const auto len = static_cast<std::size_t>(rng.range(1, max_len));
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) s.push_back(random_base(rng));
  return s;
}

}  // namespace

std::vector<VcfRecord> spawn_variants(const Reference& reference,
                                      const VariantSpec& spec) {
  Rng rng(spec.seed);
  std::vector<VcfRecord> truth;
  for (std::size_t cid = 0; cid < reference.contig_count(); ++cid) {
    const std::string& seq =
        reference.contig(static_cast<std::int32_t>(cid)).sequence;
    std::int64_t pos = 1;  // skip position 0 so indel anchors always exist
    while (pos < static_cast<std::int64_t>(seq.size()) - 1) {
      const char ref_base = seq[static_cast<std::size_t>(pos)];
      if (ref_base == 'N') {
        ++pos;
        continue;
      }
      const double r = rng.uniform();
      VcfRecord rec;
      rec.contig_id = static_cast<std::int32_t>(cid);
      rec.pos = pos;
      rec.genotype =
          rng.chance(spec.het_fraction) ? Genotype::kHet : Genotype::kHomAlt;
      rec.qual = 50.0;
      if (r < spec.snp_rate) {
        rec.ref = std::string(1, ref_base);
        rec.alt = std::string(1, random_other_base(rng, ref_base));
        truth.push_back(std::move(rec));
        pos += 1;
      } else if (r < spec.snp_rate + spec.indel_rate / 2) {
        // Insertion after this base.
        rec.ref = std::string(1, ref_base);
        rec.alt = std::string(1, ref_base)
                      .append(random_insertion(rng, spec.max_indel_length));
        truth.push_back(std::move(rec));
        pos += 2;
      } else if (r < spec.snp_rate + spec.indel_rate) {
        // Deletion of up to max_indel_length bases after this anchor.
        const auto del_len = static_cast<std::int64_t>(
            rng.range(1, spec.max_indel_length));
        const std::int64_t avail =
            static_cast<std::int64_t>(seq.size()) - pos - 1;
        const std::int64_t take = std::min(del_len, avail);
        if (take < 1) {
          ++pos;
          continue;
        }
        const std::string span =
            seq.substr(static_cast<std::size_t>(pos),
                       static_cast<std::size_t>(take) + 1);
        if (span.find('N') != std::string::npos) {
          ++pos;
          continue;
        }
        rec.ref = span;
        rec.alt = std::string(1, ref_base);
        truth.push_back(std::move(rec));
        pos += take + 1;
      } else {
        ++pos;
      }
    }
  }
  return truth;
}

Donor::Donor(const Reference& reference,
             const std::vector<VcfRecord>& variants) {
  for (int hap = 0; hap < 2; ++hap) {
    haplotypes_[hap].resize(reference.contig_count());
    shifts_[hap].resize(reference.contig_count());
  }
  // Variants must be coordinate sorted per contig.
  for (std::size_t cid = 0; cid < reference.contig_count(); ++cid) {
    const std::string& ref_seq =
        reference.contig(static_cast<std::int32_t>(cid)).sequence;
    for (int hap = 0; hap < 2; ++hap) {
      std::string donor;
      donor.reserve(ref_seq.size() + ref_seq.size() / 500);
      auto& shift_map = shifts_[hap][cid];
      std::int64_t ref_pos = 0;
      for (const auto& v : variants) {
        if (v.contig_id != static_cast<std::int32_t>(cid)) continue;
        // Haplotype 1 carries only homozygous variants.
        if (hap == 1 && v.genotype == Genotype::kHet) continue;
        if (v.pos < ref_pos) continue;  // overlapped by a previous deletion
        donor.append(ref_seq, static_cast<std::size_t>(ref_pos),
                     static_cast<std::size_t>(v.pos - ref_pos));
        donor.append(v.alt);
        ref_pos = v.pos + static_cast<std::int64_t>(v.ref.size());
        const std::int64_t shift =
            static_cast<std::int64_t>(donor.size()) - ref_pos;
        if (shift_map.empty() || shift_map.back().second != shift) {
          shift_map.emplace_back(static_cast<std::int64_t>(donor.size()),
                                 shift);
        }
      }
      donor.append(ref_seq, static_cast<std::size_t>(ref_pos),
                   ref_seq.size() - static_cast<std::size_t>(ref_pos));
      haplotypes_[hap][cid] = std::move(donor);
    }
  }
}

const std::string& Donor::haplotype(std::int32_t contig_id, int hap) const {
  return haplotypes_[hap].at(static_cast<std::size_t>(contig_id));
}

std::int64_t Donor::to_reference(std::int32_t contig_id, int hap,
                                 std::int64_t pos) const {
  const auto& shift_map = shifts_[hap].at(static_cast<std::size_t>(contig_id));
  // Find the last checkpoint at or before `pos`.
  std::int64_t shift = 0;
  auto it = std::upper_bound(
      shift_map.begin(), shift_map.end(), pos,
      [](std::int64_t p, const auto& entry) { return p < entry.first; });
  if (it != shift_map.begin()) shift = std::prev(it)->second;
  return pos - shift;
}

}  // namespace gpf::simdata
