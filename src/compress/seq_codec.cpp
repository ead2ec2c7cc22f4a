#include "compress/seq_codec.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "common/simd.hpp"

namespace gpf {
namespace {

/// Paper encoding: A:00 G:01 C:10 T:11.
constexpr std::uint8_t kA = 0b00;
constexpr std::uint8_t kG = 0b01;
constexpr std::uint8_t kC = 0b10;
constexpr std::uint8_t kT = 0b11;

constexpr char kCodeToBase[4] = {'A', 'G', 'C', 'T'};

/// Quality char restored for escaped bases on decompression ('#' = Phred 2,
/// Illumina's conventional "no-call" quality).
constexpr char kRestoredQuality = '#';

/// Per-byte code table: base char -> 2-bit code, 0xff for special bases.
constexpr std::array<std::uint8_t, 256> kBaseCode = [] {
  std::array<std::uint8_t, 256> t{};
  for (auto& v : t) v = 0xff;
  t['A'] = kA;
  t['G'] = kG;
  t['C'] = kC;
  t['T'] = kT;
  return t;
}();

/// Packed byte -> four base chars, little-endian (base i in byte i).
constexpr std::array<std::uint32_t, 256> kUnpackTable = [] {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t v = 0;
    for (int k = 0; k < 4; ++k) {
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(kCodeToBase[(b >> (2 * k)) & 3]))
           << (8 * k);
    }
    t[b] = v;
  }
  return t;
}();

/// Scalar packer for [begin, end): handles special bases (Deorowicz escape)
/// and unaligned tails.  `packed` must be zero-initialized.
void compress_block_scalar(const char* seq, char* qual, std::size_t begin,
                           std::size_t end, std::uint8_t* packed) {
  for (std::size_t i = begin; i < end; ++i) {
    std::uint8_t code = kBaseCode[static_cast<std::uint8_t>(seq[i])];
    if (code == 0xff) {
      // Deorowicz escape: store 'A' and mark via the quality sentinel.
      code = kA;
      qual[i] = kEscapeQuality;
    }
    packed[i >> 2] |= static_cast<std::uint8_t>(code << ((i & 3) * 2));
  }
}

/// True when all eight lanes of `w` are plain A/C/G/T.
bool all_acgt8(std::uint64_t w) {
  const std::uint64_t m = simd::eq_lanes(w, 'A') | simd::eq_lanes(w, 'C') |
                          simd::eq_lanes(w, 'G') | simd::eq_lanes(w, 'T');
  return m == simd::kLaneMsb;
}

/// SWAR 2-bit codes for eight validated bases.  The paper code of base c is
/// derivable from its ASCII bits: low = bit2, high = bit1 ^ bit2 (checks:
/// A=0x41 -> 00, G=0x47 -> 01, C=0x43 -> 10, T=0x54 -> 11).
std::uint16_t swar_pack8(std::uint64_t w) {
  const std::uint64_t low = (w >> 2) & simd::kLaneLsb;
  const std::uint64_t high = ((w >> 1) ^ (w >> 2)) & simd::kLaneLsb;
  std::uint64_t codes = (high << 1) | low;
  // Fold the eight 2-bit lane codes into two packed bytes (little-endian
  // nibble gather: 8 lanes -> 4-bit pairs -> bytes 0 and 4).
  codes |= codes >> 6;
  codes &= 0x000f000f000f000fULL;
  codes |= codes >> 12;
  return static_cast<std::uint16_t>((codes & 0xff) |
                                    (((codes >> 32) & 0xff) << 8));
}

#if defined(GPF_SIMD_X86)

/// Packs full 32-base blocks with AVX2; returns the first unprocessed index.
__attribute__((target("avx2"))) std::size_t compress_avx2(
    const char* seq, char* qual, std::size_t n, std::uint8_t* packed) {
  const __m256i va = _mm256_set1_epi8('A');
  const __m256i vc = _mm256_set1_epi8('C');
  const __m256i vg = _mm256_set1_epi8('G');
  const __m256i vt = _mm256_set1_epi8('T');
  const __m256i ones = _mm256_set1_epi8(1);
  const __m256i pair_w = _mm256_set1_epi16(0x0401);
  const __m256i quad_w = _mm256_set1_epi32(0x00100001);
  const __m256i gather = _mm256_setr_epi8(
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 0, 4, 8,
      12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i w =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(seq + i));
    const __m256i valid = _mm256_or_si256(
        _mm256_or_si256(_mm256_cmpeq_epi8(w, va), _mm256_cmpeq_epi8(w, vc)),
        _mm256_or_si256(_mm256_cmpeq_epi8(w, vg), _mm256_cmpeq_epi8(w, vt)));
    if (static_cast<std::uint32_t>(_mm256_movemask_epi8(valid)) !=
        0xffffffffu) {
      compress_block_scalar(seq, qual, i, i + 32, packed);
      continue;
    }
    const __m256i s1 = _mm256_srli_epi64(w, 1);
    const __m256i s2 = _mm256_srli_epi64(w, 2);
    const __m256i low = _mm256_and_si256(s2, ones);
    const __m256i high = _mm256_and_si256(_mm256_xor_si256(s1, s2), ones);
    const __m256i codes = _mm256_or_si256(_mm256_add_epi8(high, high), low);
    const __m256i pair = _mm256_maddubs_epi16(codes, pair_w);
    const __m256i quad = _mm256_madd_epi16(pair, quad_w);
    const __m256i bytes = _mm256_shuffle_epi8(quad, gather);
    const std::uint32_t lo = static_cast<std::uint32_t>(
        _mm_cvtsi128_si32(_mm256_castsi256_si128(bytes)));
    const std::uint32_t hi = static_cast<std::uint32_t>(
        _mm_cvtsi128_si32(_mm256_extracti128_si256(bytes, 1)));
    std::memcpy(packed + (i >> 2), &lo, 4);
    std::memcpy(packed + (i >> 2) + 4, &hi, 4);
  }
  return i;
}

#endif  // GPF_SIMD_X86

}  // namespace

std::size_t packed_size(std::size_t bases) { return (bases + 3) / 4; }

namespace detail {

CompressedSequence compress_sequence_at(simd::Level level,
                                        std::string_view sequence,
                                        std::string& quality) {
  if (quality.size() != sequence.size()) {
    throw std::invalid_argument("sequence/quality length mismatch");
  }
  CompressedSequence out;
  out.length = static_cast<std::uint32_t>(sequence.size());
  out.packed.assign(packed_size(sequence.size()), 0);
  const char* seq = sequence.data();
  char* qual = quality.data();
  std::uint8_t* packed = out.packed.data();
  const std::size_t n = sequence.size();

  if (level == simd::Level::kScalar) {
    compress_block_scalar(seq, qual, 0, n, packed);
    return out;
  }

  std::size_t i = 0;
#if defined(GPF_SIMD_X86)
  if (level >= simd::Level::kAvx2) i = compress_avx2(seq, qual, n, packed);
#endif
  // SWAR path: eight bases per step.  Also covers the 8..31 base tail left
  // by the AVX2 loop (its stride is a multiple of 8, so the packed output
  // stays byte-aligned).
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t w = simd::load_u64(seq + i);
    if (!all_acgt8(w)) {
      compress_block_scalar(seq, qual, i, i + 8, packed);
      continue;
    }
    const std::uint16_t p = swar_pack8(w);
    std::memcpy(packed + (i >> 2), &p, 2);
  }
  compress_block_scalar(seq, qual, i, n, packed);
  return out;
}

std::string decompress_sequence_at(simd::Level level,
                                   const CompressedSequence& compressed,
                                   std::string& quality) {
  if (quality.size() != compressed.length) {
    throw std::invalid_argument("quality length mismatch on decompress");
  }
  const std::size_t n = compressed.length;
  // Bounds check hoisted out of the per-base loop: one size test up front
  // replaces the per-iteration .at() the scalar loop used to pay.
  if (compressed.packed.size() < packed_size(n)) {
    throw std::out_of_range("decompress_sequence: packed buffer too small");
  }
  std::string seq(n, 'A');
  const std::uint8_t* packed = compressed.packed.data();
  char* sp = seq.data();
  char* qp = quality.data();

  if (level == simd::Level::kScalar) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t code = (packed[i >> 2] >> ((i & 3) * 2)) & 0b11;
      if (qp[i] == kEscapeQuality) {
        // An escaped special base: the stored code is 'A' by construction.
        sp[i] = 'N';
        qp[i] = kRestoredQuality;
      } else {
        sp[i] = kCodeToBase[code];
      }
    }
    return seq;
  }

  // Table-driven bulk unpack: one 256-entry lookup expands four bases.
  const std::size_t full = n / 4;
  for (std::size_t g = 0; g < full; ++g) {
    std::memcpy(sp + 4 * g, &kUnpackTable[packed[g]], 4);
  }
  for (std::size_t i = full * 4; i < n; ++i) {
    sp[i] = kCodeToBase[(packed[i >> 2] >> ((i & 3) * 2)) & 0b11];
  }
  // Escape fixups are rare: SWAR-scan the quality string for the sentinel
  // eight bytes at a time and patch only matching lanes.
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t hits = simd::eq_lanes(
        simd::load_u64(qp + i), static_cast<std::uint8_t>(kEscapeQuality));
    while (hits != 0) {
      const std::size_t lane =
          static_cast<std::size_t>(std::countr_zero(hits)) >> 3;
      sp[i + lane] = 'N';
      qp[i + lane] = kRestoredQuality;
      hits &= hits - 1;
    }
  }
  for (; i < n; ++i) {
    if (qp[i] == kEscapeQuality) {
      sp[i] = 'N';
      qp[i] = kRestoredQuality;
    }
  }
  return seq;
}

}  // namespace detail

CompressedSequence compress_sequence(std::string_view sequence,
                                     std::string& quality) {
  return detail::compress_sequence_at(simd::active_level(), sequence, quality);
}

std::string decompress_sequence(const CompressedSequence& compressed,
                                std::string& quality) {
  return detail::decompress_sequence_at(simd::active_level(), compressed,
                                        quality);
}

}  // namespace gpf
