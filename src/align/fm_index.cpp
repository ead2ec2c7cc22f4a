#include "align/fm_index.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

#include "align/suffix_array.hpp"
#include "common/simd.hpp"

namespace gpf::align {
namespace {

using OccBlock = FmIndex::OccBlock;

constexpr std::uint32_t kBlockRows = 64;

std::uint8_t base_to_code(char base) {
  switch (base) {
    case 'A':
      return 1;
    case 'C':
      return 2;
    case 'G':
      return 3;
    case 'T':
      return 4;
    default:
      return 1;  // N indexed as A; see header comment
  }
}

/// Code of each query byte: 1-4 for A/C/G/T, 0 for any byte that never
/// matches.
constexpr std::array<std::uint8_t, 256> kQueryCode = [] {
  std::array<std::uint8_t, 256> code{};
  code['A'] = 1;
  code['C'] = 2;
  code['G'] = 3;
  code['T'] = 4;
  return code;
}();

std::uint8_t query_code(char base) {
  return kQueryCode[static_cast<std::uint8_t>(base)];
}

/// occ(code, i): rows in [0, i) whose BWT byte is `code` (1-4).
[[gnu::always_inline]] inline std::uint32_t occ(const OccBlock* blocks,
                                                std::uint8_t code,
                                                std::uint32_t i) {
  const OccBlock& block = blocks[i / kBlockRows];
  const std::uint64_t below = (std::uint64_t{1} << (i % kBlockRows)) - 1;
  const std::uint64_t rows_below = block.mask[code - 1] & below;
  return block.count[code - 1] +
         static_cast<std::uint32_t>(std::popcount(rows_below));
}

/// The backward-search loop.  search() runs it either inlined into
/// search_popcnt, where std::popcount is the POPCNT instruction, or inlined
/// into itself, where it is the portable libgcc call.
[[gnu::always_inline]] inline SaInterval backward_search(
    const OccBlock* blocks, const std::uint32_t* c, std::uint32_t rows,
    std::string_view pattern) {
  std::uint32_t lo = 0;
  std::uint32_t hi = rows;
  for (std::size_t j = pattern.size(); j-- > 0;) {
    const std::uint8_t code = query_code(pattern[j]);
    if (code == 0) return {0, 0};
    lo = c[code] + occ(blocks, code, lo);
    hi = c[code] + occ(blocks, code, hi);
    if (lo >= hi) return {0, 0};
  }
  return {lo, hi};
}

#if defined(GPF_SIMD_X86) && (defined(__GNUC__) || defined(__clang__))
__attribute__((target("popcnt"))) SaInterval search_popcnt(
    const OccBlock* blocks, const std::uint32_t* c, std::uint32_t rows,
    std::string_view pattern) {
  return backward_search(blocks, c, rows, pattern);
}

bool use_popcnt() {
  static const bool yes = simd::active_level() > simd::Level::kScalar &&
                          __builtin_cpu_supports("popcnt");
  return yes;
}
#endif

}  // namespace

namespace detail {

std::vector<std::uint8_t> index_text(const Reference& reference) {
  std::vector<std::uint8_t> text;
  text.reserve(reference.total_length() + reference.contig_count());
  for (const auto& contig : reference.contigs()) {
    for (const char b : contig.sequence) text.push_back(base_to_code(b));
    text.push_back(0);
  }
  return text;
}

SaInterval sa_interval_reference(std::span<const std::uint8_t> text,
                                 std::span<const std::uint32_t> sa,
                                 std::string_view pattern) {
  std::vector<std::uint8_t> codes(pattern.size());
  for (std::size_t k = 0; k < pattern.size(); ++k) {
    codes[k] = query_code(pattern[k]);
    if (codes[k] == 0) return {0, 0};
  }
  // Sign of (suffix at p, cut to the pattern's length) minus the pattern.
  auto compare = [&](std::uint32_t p) {
    for (std::size_t k = 0; k < codes.size(); ++k) {
      if (p + k >= text.size()) return -1;
      if (text[p + k] != codes[k]) return text[p + k] < codes[k] ? -1 : 1;
    }
    return 0;
  };
  auto below = [&](std::uint32_t p) { return compare(p) < 0; };
  auto matches = [&](std::uint32_t p) { return compare(p) == 0; };
  const auto lo = std::partition_point(sa.begin(), sa.end(), below);
  const auto hi = std::partition_point(lo, sa.end(), matches);
  return {static_cast<std::uint32_t>(lo - sa.begin()),
          static_cast<std::uint32_t>(hi - sa.begin())};
}

}  // namespace detail

FmIndex::FmIndex(const Reference& reference) : reference_(&reference) {
  const std::vector<std::uint8_t> text = detail::index_text(reference);
  if (text.empty()) throw std::invalid_argument("FmIndex: empty reference");
  contig_starts_.reserve(reference.contig_count());
  std::uint64_t start = 0;
  for (const auto& contig : reference.contigs()) {
    contig_starts_.push_back(start);
    start += contig.sequence.size() + 1;
  }

  sa_ = build_suffix_array(text);
  const std::size_t n = text.size();

  // C array: c_[code] counts the suffixes starting below `code`.
  std::uint32_t counts[5] = {};
  for (const std::uint8_t code : text) ++counts[code];
  for (int code = 1; code < 5; ++code) {
    c_[code] = c_[code - 1] + counts[code - 1];
  }

  // Occurrence blocks; the byte BWT is needed only while they are filled.
  const std::vector<std::uint8_t> bwt = bwt_from_suffix_array(text, sa_);
  occ_.assign(n / kBlockRows + 1, OccBlock{});
  std::uint32_t running[4] = {};
  for (std::size_t i = 0; i < n; ++i) {
    OccBlock& block = occ_[i / kBlockRows];
    if (i % kBlockRows == 0) std::copy(running, running + 4, block.count);
    const std::uint8_t code = bwt[i];
    if (code == 0) continue;
    block.mask[code - 1] |= std::uint64_t{1} << (i % kBlockRows);
    ++running[code - 1];
  }
  if (n % kBlockRows == 0) std::copy(running, running + 4, occ_.back().count);
}

SaInterval FmIndex::extend(const SaInterval& interval, char base) const {
  const std::uint8_t code = query_code(base);
  if (code == 0) return {0, 0};
  return {c_[code] + occ(occ_.data(), code, interval.lo),
          c_[code] + occ(occ_.data(), code, interval.hi)};
}

SaInterval FmIndex::search(std::string_view pattern) const {
  const auto rows = static_cast<std::uint32_t>(sa_.size());
#if defined(GPF_SIMD_X86) && (defined(__GNUC__) || defined(__clang__))
  if (use_popcnt()) return search_popcnt(occ_.data(), c_, rows, pattern);
#endif
  return backward_search(occ_.data(), c_, rows, pattern);
}

RefPosition FmIndex::locate(std::uint32_t row) const {
  const std::uint64_t text_pos = sa_.at(row);

  // Map into contig coordinates.
  auto it = std::upper_bound(contig_starts_.begin(), contig_starts_.end(),
                             text_pos);
  const auto cid = static_cast<std::int32_t>(
      std::distance(contig_starts_.begin(), it) - 1);
  RefPosition pos;
  pos.contig_id = cid;
  pos.offset =
      static_cast<std::int64_t>(text_pos - contig_starts_[cid]);
  // Positions landing on a separator belong to no contig.
  const auto len = static_cast<std::int64_t>(
      reference_->contig(cid).sequence.size());
  if (pos.offset >= len) return {};  // separator row
  return pos;
}

}  // namespace gpf::align
