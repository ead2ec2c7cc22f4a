#include "formats/scan.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "common/thread_pool.hpp"

namespace gpf::fmt {
namespace {

// --- 64-byte block mask kernels ---------------------------------------------
//
// Each kernel reads exactly 64 bytes and returns one bit per byte.  The
// SWAR path composes eight 8-lane masks via movemask_lanes; the AVX2 path
// uses the hardware movemask.

std::uint64_t eq_block_swar(const char* p, char needle) {
  std::uint64_t mask = 0;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t v = simd::load_u64(p + 8 * i);
    mask |= static_cast<std::uint64_t>(simd::movemask_lanes(
                simd::eq_lanes(v, static_cast<std::uint8_t>(needle))))
            << (8 * i);
  }
  return mask;
}

std::uint64_t range_violation_block_swar(const char* p, std::uint8_t lo,
                                         std::uint8_t hi) {
  std::uint64_t mask = 0;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t v = simd::load_u64(p + 8 * i);
    const std::uint64_t bad =
        simd::lt_lanes(v, lo) | simd::gt_lanes(v, hi);
    mask |= static_cast<std::uint64_t>(simd::movemask_lanes(bad)) << (8 * i);
  }
  return mask;
}

#if defined(GPF_SIMD_X86)

__attribute__((target("avx2"))) std::uint64_t eq_block_avx2(const char* p,
                                                            char needle) {
  const __m256i n = _mm256_set1_epi8(needle);
  const __m256i lo =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const __m256i hi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32));
  const auto mlo = static_cast<std::uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(lo, n)));
  const auto mhi = static_cast<std::uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(hi, n)));
  return static_cast<std::uint64_t>(mhi) << 32 | mlo;
}

__attribute__((target("avx2"))) std::uint64_t range_violation_block_avx2(
    const char* p, std::uint8_t lo, std::uint8_t hi) {
  const __m256i vlo = _mm256_set1_epi8(static_cast<char>(lo));
  const __m256i vhi = _mm256_set1_epi8(static_cast<char>(hi));
  const __m256i zero = _mm256_setzero_si256();
  std::uint64_t mask = 0;
  for (int i = 0; i < 2; ++i) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32 * i));
    const __m256i bad = _mm256_or_si256(_mm256_subs_epu8(v, vhi),
                                        _mm256_subs_epu8(vlo, v));
    const __m256i ok = _mm256_cmpeq_epi8(bad, zero);
    mask |= static_cast<std::uint64_t>(
                ~static_cast<std::uint32_t>(_mm256_movemask_epi8(ok)))
            << (32 * i);
  }
  return mask;
}

#endif  // GPF_SIMD_X86

// --- byte-class kernels (newline / space / printable-range) -----------------
//
// One load per block feeds all three masks, so building the AsciiProfile
// costs one pass over the text instead of one per predicate.

struct ClassMasks {
  std::uint64_t newline;
  std::uint64_t space;
  std::uint64_t bad;  // outside [0x20, 0x7E], '\n' excluded
  std::uint64_t cr;
};

ClassMasks classify_block_swar(const char* p) {
  ClassMasks m{0, 0, 0, 0};
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t v = simd::load_u64(p + 8 * i);
    const std::uint64_t nl = simd::eq_lanes(v, '\n');
    const std::uint64_t sp = simd::eq_lanes(v, 0x20);
    const std::uint64_t cr = simd::eq_lanes(v, '\r');
    const std::uint64_t bad =
        (simd::lt_lanes(v, 0x20) | simd::gt_lanes(v, 0x7E)) & ~nl;
    m.newline |= static_cast<std::uint64_t>(simd::movemask_lanes(nl))
                 << (8 * i);
    m.space |= static_cast<std::uint64_t>(simd::movemask_lanes(sp)) << (8 * i);
    m.bad |= static_cast<std::uint64_t>(simd::movemask_lanes(bad)) << (8 * i);
    m.cr |= static_cast<std::uint64_t>(simd::movemask_lanes(cr)) << (8 * i);
  }
  return m;
}

#if defined(GPF_SIMD_X86)

__attribute__((target("avx2"))) ClassMasks classify_block_avx2(const char* p) {
  const __m256i nl = _mm256_set1_epi8('\n');
  const __m256i sp = _mm256_set1_epi8(' ');
  const __m256i cr = _mm256_set1_epi8('\r');
  const __m256i lo = _mm256_set1_epi8(0x20);
  const __m256i hi = _mm256_set1_epi8(0x7E);
  const __m256i zero = _mm256_setzero_si256();
  ClassMasks m{0, 0, 0, 0};
  for (int i = 0; i < 2; ++i) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32 * i));
    const auto nlm = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, nl)));
    const auto spm = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, sp)));
    const auto crm = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, cr)));
    const __m256i viol =
        _mm256_or_si256(_mm256_subs_epu8(v, hi), _mm256_subs_epu8(lo, v));
    const auto okm = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(viol, zero)));
    m.newline |= static_cast<std::uint64_t>(nlm) << (32 * i);
    m.space |= static_cast<std::uint64_t>(spm) << (32 * i);
    m.bad |= static_cast<std::uint64_t>(~okm & ~nlm) << (32 * i);
    m.cr |= static_cast<std::uint64_t>(crm) << (32 * i);
  }
  return m;
}

#endif  // GPF_SIMD_X86

ClassMasks classify_block(simd::Level level, const char* p) {
#if defined(GPF_SIMD_X86)
  if (level >= simd::Level::kAvx2) return classify_block_avx2(p);
#endif
  (void)level;
  return classify_block_swar(p);
}

/// Classifies a final partial block; bits at or past `n` are zero because
/// the padding byte ('A') is a clean printable.
ClassMasks classify_tail(simd::Level level, const char* p, std::size_t n) {
  char buf[64];
  std::memset(buf, 'A', sizeof buf);
  std::memcpy(buf, p, n);
  return classify_block(level, buf);
}

void emit_positions(std::uint64_t mask, std::size_t base,
                    std::vector<std::uint32_t>& out) {
  while (mask != 0) {
    out.push_back(static_cast<std::uint32_t>(
        base + static_cast<std::size_t>(std::countr_zero(mask))));
    mask &= mask - 1;
  }
}

/// Single sweep over [begin, end): newline positions, the head byte of
/// the line each newline opens (read while the block is cache-hot, so the
/// structural checks later touch no text), and the sparse byte-class
/// lists of the AsciiProfile.
void scan_profile_range(simd::Level level, std::string_view text,
                        std::size_t begin, std::size_t end,
                        std::vector<std::uint32_t>& newlines,
                        std::vector<char>& heads, AsciiProfile& profile) {
  const char* data = text.data();
  for (std::size_t i = begin; i < end; i += 64) {
    const std::size_t n = end - i;
    const ClassMasks m = n >= 64 ? classify_block(level, data + i)
                                 : classify_tail(level, data + i, n);
    std::uint64_t nl = m.newline;
    while (nl != 0) {
      const std::size_t pos =
          i + static_cast<std::size_t>(std::countr_zero(nl));
      newlines.push_back(static_cast<std::uint32_t>(pos));
      heads.push_back(pos + 1 < text.size() ? data[pos + 1] : '\n');
      nl &= nl - 1;
    }
    emit_positions(m.space, i, profile.spaces);
    emit_positions(m.bad, i, profile.violations);
    emit_positions(m.cr, i, profile.carriage);
  }
}

/// Mask for a final partial block (n < 64).  Works through 8-byte SWAR
/// words — cheaper than padding out a 64-byte buffer for short lines,
/// which are the common case.  Bits at or past `n` are zero because the
/// last word's padding is forced to differ from the needle.
std::uint64_t eq_tail_mask(const char* p, std::size_t n, char needle) {
  std::uint64_t mask = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    mask |= static_cast<std::uint64_t>(simd::movemask_lanes(simd::eq_lanes(
                simd::load_u64(p + i), static_cast<std::uint8_t>(needle))))
            << i;
  }
  if (i < n) {
    char buf[8];
    std::memset(buf, ~needle, sizeof buf);
    std::memcpy(buf, p + i, n - i);
    mask |= static_cast<std::uint64_t>(simd::movemask_lanes(simd::eq_lanes(
                simd::load_u64(buf), static_cast<std::uint8_t>(needle))))
            << i;
  }
  return mask;
}

/// Appends every `needle` position in [begin, end) of `text` to `out`.
void scan_range(simd::Level level, std::string_view text, std::size_t begin,
                std::size_t end, char needle,
                std::vector<std::uint32_t>& out) {
  const char* data = text.data();
  std::size_t i = begin;
  while (i < end) {
    const std::size_t n = end - i;
    std::uint64_t mask;
    if (n >= 64) {
      mask = eq_block_mask(level, data + i, needle);
    } else {
      mask = eq_tail_mask(data + i, n, needle);
    }
    while (mask != 0) {
      out.push_back(static_cast<std::uint32_t>(
          i + static_cast<std::size_t>(std::countr_zero(mask))));
      mask &= mask - 1;
    }
    i += 64;
  }
}

}  // namespace

std::uint64_t eq_block_mask(simd::Level level, const char* p, char needle) {
#if defined(GPF_SIMD_X86)
  if (level >= simd::Level::kAvx2) return eq_block_avx2(p, needle);
#endif
  (void)level;
  return eq_block_swar(p, needle);
}

std::uint64_t range_violation_block_mask(simd::Level level, const char* p,
                                         std::uint8_t lo, std::uint8_t hi) {
#if defined(GPF_SIMD_X86)
  if (level >= simd::Level::kAvx2) return range_violation_block_avx2(p, lo, hi);
#endif
  (void)level;
  return range_violation_block_swar(p, lo, hi);
}

bool bytes_in_range(simd::Level level, std::string_view s, std::uint8_t lo,
                    std::uint8_t hi) {
  const char* p = s.data();
  std::size_t n = s.size();
  while (n >= 64) {
    if (range_violation_block_mask(level, p, lo, hi) != 0) return false;
    p += 64;
    n -= 64;
  }
  // Tail: 8-byte SWAR words, then one padded word for the last <8 bytes.
  while (n >= 8) {
    const std::uint64_t v = simd::load_u64(p);
    if ((simd::lt_lanes(v, lo) | simd::gt_lanes(v, hi)) != 0) return false;
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    char buf[8];
    std::memset(buf, lo, sizeof buf);  // padding is in-range by construction
    std::memcpy(buf, p, n);
    const std::uint64_t v = simd::load_u64(buf);
    if ((simd::lt_lanes(v, lo) | simd::gt_lanes(v, hi)) != 0) return false;
  }
  return true;
}

void scan_positions(simd::Level level, std::string_view text, char needle,
                    std::vector<std::uint32_t>& out) {
  scan_range(level, text, 0, text.size(), needle, out);
}

void split_fields(simd::Level level, std::string_view line, char sep,
                  std::vector<std::string_view>& fields) {
  fields.clear();
  const char* data = line.data();
  std::size_t start = 0;
  std::size_t i = 0;
  const std::size_t n = line.size();
  while (i < n) {
    const std::size_t left = n - i;
    std::uint64_t mask = left >= 64 ? eq_block_mask(level, data + i, sep)
                                    : eq_tail_mask(data + i, left, sep);
    while (mask != 0) {
      const std::size_t pos =
          i + static_cast<std::size_t>(std::countr_zero(mask));
      fields.push_back(line.substr(start, pos - start));
      start = pos + 1;
      mask &= mask - 1;
    }
    i += 64;
  }
  fields.push_back(line.substr(start));
}

namespace {

/// Concatenates per-chunk lists (disjoint ascending ranges) into one
/// list, copying chunks in parallel.
template <typename T>
void concat_chunks(ThreadPool& pool, const std::vector<std::vector<T>>& partial,
                   std::vector<T>& out) {
  std::size_t total = 0;
  for (const auto& v : partial) total += v.size();
  out.resize(total);
  std::vector<std::size_t> offset(partial.size(), 0);
  for (std::size_t c = 1; c < partial.size(); ++c) {
    offset[c] = offset[c - 1] + partial[c - 1].size();
  }
  pool.parallel_for(partial.size(), [&](std::size_t c) {
    if (partial[c].empty()) return;
    std::memcpy(out.data() + offset[c], partial[c].data(),
                partial[c].size() * sizeof(T));
  });
}

}  // namespace

LineIndex::LineIndex(simd::Level level, std::string_view text,
                     std::size_t parallel_threshold, AsciiProfile* profile) {
  if (text.size() > kMaxTextBytes) {
    throw std::invalid_argument("parse: input exceeds 4 GiB");
  }
  text_ = text;
  if (profile != nullptr && !text.empty()) head0_ = text.front();
  if (text.size() < parallel_threshold) {
    newlines_.reserve(text.size() / 48 + 4);
    if (profile == nullptr) {
      scan_range(level, text, 0, text.size(), '\n', newlines_);
    } else {
      heads_.reserve(text.size() / 48 + 4);
      scan_profile_range(level, text, 0, text.size(), newlines_, heads_,
                         *profile);
    }
  } else {
    // Chunked parallel scan.  Byte classes are context-free, so chunks
    // may start at arbitrary byte offsets; keeping them 64-byte aligned
    // just keeps every block load inside one chunk.
    ThreadPool& pool = ThreadPool::global();
    const std::size_t min_chunk = 1 << 18;
    std::size_t chunks = std::max<std::size_t>(1, pool.size() * 4);
    chunks = std::min(chunks, (text.size() + min_chunk - 1) / min_chunk);
    const std::size_t per =
        ((text.size() + chunks - 1) / chunks + 63) / 64 * 64;
    std::vector<std::vector<std::uint32_t>> part_nl(chunks);
    std::vector<std::vector<char>> part_heads(profile != nullptr ? chunks : 0);
    std::vector<AsciiProfile> part_prof(profile != nullptr ? chunks : 0);
    pool.parallel_for(chunks, [&](std::size_t c) {
      const std::size_t lo = c * per;
      const std::size_t hi = std::min(text.size(), lo + per);
      if (lo >= hi) return;
      part_nl[c].reserve((hi - lo) / 48 + 4);
      if (profile == nullptr) {
        scan_range(level, text, lo, hi, '\n', part_nl[c]);
      } else {
        scan_profile_range(level, text, lo, hi, part_nl[c], part_heads[c],
                           part_prof[c]);
      }
    });
    concat_chunks(pool, part_nl, newlines_);
    if (profile != nullptr) {
      concat_chunks(pool, part_heads, heads_);
      std::vector<std::vector<std::uint32_t>> field(chunks);
      for (const auto list : {&AsciiProfile::spaces, &AsciiProfile::violations,
                              &AsciiProfile::carriage}) {
        for (std::size_t c = 0; c < chunks; ++c) {
          field[c] = std::move(part_prof[c].*list);
        }
        concat_chunks(pool, field, profile->*list);
      }
    }
  }
  count_ = newlines_.size();
  // A final byte run without a terminating '\n' is still a line.
  if (!text.empty() && text.back() != '\n') ++count_;
}

namespace detail {

void split_fields_reference(std::string_view line, char sep,
                            std::vector<std::string_view>& fields) {
  fields.clear();
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = line.find(sep, start);
    if (pos == std::string_view::npos) {
      fields.push_back(line.substr(start));
      return;
    }
    fields.push_back(line.substr(start, pos - start));
    start = pos + 1;
  }
}

bool bytes_in_range_reference(std::string_view s, std::uint8_t lo,
                              std::uint8_t hi) {
  for (const char c : s) {
    const auto b = static_cast<std::uint8_t>(c);
    if (b < lo || b > hi) return false;
  }
  return true;
}

}  // namespace detail

}  // namespace gpf::fmt
