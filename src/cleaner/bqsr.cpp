#include "cleaner/bqsr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace gpf::cleaner {
namespace {

int base_index(char c) {
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
      return -1;
  }
}

}  // namespace

KnownSites::KnownSites(std::span<const VcfRecord> sites) {
  sites_.reserve(sites.size() * 2);
  for (const auto& v : sites) {
    // Cover the whole REF span so deletions shield every affected base.
    for (std::size_t i = 0; i < v.ref.size(); ++i) {
      sites_.insert((static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(v.contig_id))
                     << 40) |
                    static_cast<std::uint64_t>(v.pos + static_cast<std::int64_t>(i)));
    }
  }
}

bool KnownSites::contains(std::int32_t contig_id, std::int64_t pos) const {
  return sites_.contains(
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(contig_id))
       << 40) |
      static_cast<std::uint64_t>(pos));
}

RecalTable::RecalTable()
    : by_quality_(kMaxQuality),
      by_quality_cycle_(static_cast<std::size_t>(kMaxQuality) * kMaxCycle),
      by_quality_context_(static_cast<std::size_t>(kMaxQuality) * kContexts) {}

void RecalTable::observe(int reported_quality, int cycle, int context,
                         bool mismatch) {
  reported_quality = std::clamp(reported_quality, 0, kMaxQuality - 1);
  cycle = std::clamp(cycle, 0, kMaxCycle - 1);
  auto bump = [mismatch](Cell& cell) {
    ++cell.observations;
    if (mismatch) ++cell.mismatches;
  };
  bump(by_quality_[static_cast<std::size_t>(reported_quality)]);
  bump(by_quality_cycle_[static_cast<std::size_t>(reported_quality) *
                             kMaxCycle +
                         static_cast<std::size_t>(cycle)]);
  if (context >= 0 && context < kContexts) {
    bump(by_quality_context_[static_cast<std::size_t>(reported_quality) *
                                 kContexts +
                             static_cast<std::size_t>(context)]);
  }
  ++total_obs_;
  if (mismatch) ++total_mismatch_;
}

void RecalTable::merge(const RecalTable& other) {
  auto merge_vec = [](std::vector<Cell>& dst, const std::vector<Cell>& src) {
    for (std::size_t i = 0; i < dst.size(); ++i) {
      dst[i].observations += src[i].observations;
      dst[i].mismatches += src[i].mismatches;
    }
  };
  merge_vec(by_quality_, other.by_quality_);
  merge_vec(by_quality_cycle_, other.by_quality_cycle_);
  merge_vec(by_quality_context_, other.by_quality_context_);
  total_obs_ += other.total_obs_;
  total_mismatch_ += other.total_mismatch_;
}

double RecalTable::phred(double error_rate) {
  error_rate = std::clamp(error_rate, 1e-10, 1.0);
  return -10.0 * std::log10(error_rate);
}

double RecalTable::global_empirical_quality() const {
  return phred((static_cast<double>(total_mismatch_) + 1.0) /
               (static_cast<double>(total_obs_) + 2.0));
}

double RecalTable::empirical_quality(int reported_quality, int cycle,
                                     int context) const {
  reported_quality = std::clamp(reported_quality, 0, kMaxQuality - 1);
  cycle = std::clamp(cycle, 0, kMaxCycle - 1);

  auto emp = [](const Cell& cell) {
    return phred((static_cast<double>(cell.mismatches) + 1.0) /
                 (static_cast<double>(cell.observations) + 2.0));
  };

  // GATK's hierarchical model: global + deltaQ + deltaCycle + deltaContext.
  const double global = global_empirical_quality();
  const Cell& q_cell = by_quality_[static_cast<std::size_t>(reported_quality)];
  if (q_cell.observations == 0) return global;
  const double q_emp = emp(q_cell);
  double result = q_emp;

  const Cell& qc_cell =
      by_quality_cycle_[static_cast<std::size_t>(reported_quality) *
                            kMaxCycle +
                        static_cast<std::size_t>(cycle)];
  if (qc_cell.observations > 0) result += emp(qc_cell) - q_emp;

  if (context >= 0 && context < kContexts) {
    const Cell& qx_cell =
        by_quality_context_[static_cast<std::size_t>(reported_quality) *
                                kContexts +
                            static_cast<std::size_t>(context)];
    if (qx_cell.observations > 0) result += emp(qx_cell) - q_emp;
  }
  return std::clamp(result, 1.0, 93.0);
}

void RecalTable::smoothed_bins(int cycles, Bins& out) const {
  cycles = std::clamp(cycles, 1, kMaxCycle);
  out.global = global_empirical_quality();
  out.cycles = cycles;
  auto emp = [](const Cell& cell) {
    return cell.observations == 0
               ? std::numeric_limits<double>::quiet_NaN()
               : phred((static_cast<double>(cell.mismatches) + 1.0) /
                       (static_cast<double>(cell.observations) + 2.0));
  };
  out.by_quality.resize(kMaxQuality);
  out.by_quality_cycle.resize(static_cast<std::size_t>(kMaxQuality) *
                              static_cast<std::size_t>(cycles));
  out.by_quality_context.resize(static_cast<std::size_t>(kMaxQuality) *
                                kContexts);
  for (std::size_t q = 0; q < kMaxQuality; ++q) {
    out.by_quality[q] = emp(by_quality_[q]);
    for (std::size_t c = 0; c < static_cast<std::size_t>(cycles); ++c) {
      out.by_quality_cycle[q * static_cast<std::size_t>(cycles) + c] =
          emp(by_quality_cycle_[q * kMaxCycle + c]);
    }
    for (std::size_t x = 0; x < kContexts; ++x) {
      out.by_quality_context[q * kContexts + x] =
          emp(by_quality_context_[q * kContexts + x]);
    }
  }
}

double RecalTable::Bins::quality(int reported_quality, int cycle,
                                 int context) const {
  // empirical_quality()'s expressions in its order, NaN for an empty bin.
  const auto q = static_cast<std::size_t>(
      std::clamp(reported_quality, 0, kMaxQuality - 1));
  const double q_emp = by_quality[q];
  if (std::isnan(q_emp)) return global;
  double result = q_emp;
  const auto c = static_cast<std::size_t>(std::clamp(cycle, 0, cycles - 1));
  const double qc_emp =
      by_quality_cycle[q * static_cast<std::size_t>(cycles) + c];
  if (!std::isnan(qc_emp)) result += qc_emp - q_emp;
  if (context >= 0 && context < kContexts) {
    const double qx_emp =
        by_quality_context[q * kContexts + static_cast<std::size_t>(context)];
    if (!std::isnan(qx_emp)) result += qx_emp - q_emp;
  }
  return std::clamp(result, 1.0, 93.0);
}

std::size_t RecalTable::byte_size() const {
  return (by_quality_.size() + by_quality_cycle_.size() +
          by_quality_context_.size()) *
             sizeof(Cell) +
         2 * sizeof(std::uint64_t);
}

int dinucleotide_context(char prev, char cur) {
  const int p = base_index(prev);
  const int c = base_index(cur);
  if (p < 0 || c < 0) return -1;
  return p * 4 + c;
}

RecalTable collect_covariates(std::span<const SamRecord> records,
                              const Reference& reference,
                              const KnownSites& known) {
  RecalTable table;
  for (const auto& rec : records) {
    if (rec.is_unmapped() || rec.is_duplicate() || rec.is_secondary()) {
      continue;
    }
    std::int64_t ref_pos = rec.pos;
    std::size_t read_pos = 0;
    for (const auto& el : rec.cigar) {
      if (el.op == CigarOp::kMatch || el.op == CigarOp::kEqual ||
          el.op == CigarOp::kDiff) {
        const std::string_view ref_span =
            reference.slice(rec.contig_id, ref_pos, el.length);
        for (std::size_t i = 0; i < ref_span.size(); ++i) {
          const std::int64_t pos = ref_pos + static_cast<std::int64_t>(i);
          const char rb = ref_span[i];
          const char qb = rec.sequence[read_pos + i];
          if (rb == 'N' || qb == 'N') continue;
          if (known.contains(rec.contig_id, pos)) continue;
          const int quality = rec.quality[read_pos + i] - 33;
          const int cycle = static_cast<int>(read_pos + i);
          const char prev =
              read_pos + i > 0 ? rec.sequence[read_pos + i - 1] : 'N';
          table.observe(quality, cycle, dinucleotide_context(prev, qb),
                        rb != qb);
        }
        ref_pos += el.length;
        read_pos += el.length;
      } else {
        if (consumes_reference(el.op)) ref_pos += el.length;
        if (consumes_read(el.op)) read_pos += el.length;
      }
    }
  }
  return table;
}

ApplyStats apply_recalibration(std::vector<SamRecord>& records,
                               const RecalTable& table) {
  ApplyStats stats;
  // Cycle bins beyond the longest read are never read.
  std::size_t longest = 0;
  for (const auto& rec : records) {
    if (!rec.is_unmapped()) longest = std::max(longest, rec.quality.size());
  }
  if (longest == 0) return stats;
  const auto cycles = static_cast<int>(
      std::min<std::size_t>(longest, RecalTable::kMaxCycle));
  // Per thread, so a partition's pass reuses the previous one's capacity.
  static thread_local RecalTable::Bins bins;
  table.smoothed_bins(cycles, bins);
  for (auto& rec : records) {
    if (rec.is_unmapped()) continue;
    for (std::size_t i = 0; i < rec.quality.size(); ++i) {
      ++stats.bases_seen;
      const int reported = rec.quality[i] - 33;
      const char prev = i > 0 ? rec.sequence[i - 1] : 'N';
      const int context = dinucleotide_context(prev, rec.sequence[i]);
      const double emp = bins.quality(reported, static_cast<int>(i), context);
      const int recal = static_cast<int>(std::lround(emp));
      const char out = static_cast<char>(std::clamp(recal, 1, 93) + 33);
      if (out != rec.quality[i]) {
        rec.quality[i] = out;
        ++stats.bases_adjusted;
      }
    }
  }
  return stats;
}

}  // namespace gpf::cleaner
