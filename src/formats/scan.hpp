// Bitstream-parallel text scanning: the shared front-end under the
// FASTQ/SAM/VCF parsers.
//
// Parabix-style idea, adapted to the repo's SWAR/SIMD dispatch layer: the
// input is processed in 64-byte blocks, each block transposed into a
// 64-bit *mask stream* (bit i set iff byte i matches a predicate — is a
// newline, a tab, an out-of-range byte, ...).  Record and field
// boundaries are then found with mask arithmetic (countr_zero / clear
// lowest bit) instead of byte-at-a-time find('\n') loops, and structural
// validation becomes a handful of mask tests per record instead of a
// branch per byte.
//
// Three mask kernels exist per predicate — portable 64-bit SWAR, SSE4 and
// AVX2 — selected by the simd::Level argument at runtime; kAvx512 runs the
// AVX2 kernel (GPF_SIMD_MAX=scalar pins dispatch to the SWAR path; see
// common/simd.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/simd.hpp"

namespace gpf::fmt {

/// Inputs are indexed with 32-bit offsets (half the memory of size_t line
/// tables); parsers reject anything larger up front.
inline constexpr std::size_t kMaxTextBytes = 0xFFFFFFFFu;

/// Parsers switch from the single-threaded scan to the chunked
/// ThreadPool driver at this input size.
inline constexpr std::size_t kParallelParseBytes = std::size_t{1} << 20;

/// Bitmask of the positions of `needle` inside the 64-byte block at `p`.
/// Bit i corresponds to p[i]; all 64 bytes must be readable.
std::uint64_t eq_block_mask(simd::Level level, const char* p, char needle);

/// Bitmask of the bytes of the 64-byte block at `p` that fall *outside*
/// the inclusive range [lo, hi].  Requires lo >= 1 and hi <= 127 (ASCII
/// classification; that is all the parsers need).
std::uint64_t range_violation_block_mask(simd::Level level, const char* p,
                                         std::uint8_t lo, std::uint8_t hi);

/// True iff every byte of `s` lies in the inclusive range [lo, hi]
/// (block masks over full blocks, padded tail block at the end).
bool bytes_in_range(simd::Level level, std::string_view s, std::uint8_t lo,
                    std::uint8_t hi);

/// Appends the offset of every `needle` byte in `text` to `out`.
/// Single-threaded; the parallel driver lives in LineIndex.
void scan_positions(simd::Level level, std::string_view text, char needle,
                    std::vector<std::uint32_t>& out);

/// Splits `line` on `sep` into `fields` (cleared first) using separator
/// masks.  Matches the classic byte-loop splitter exactly, including the
/// trailing empty field of "a\t" and the single empty field of "".
void split_fields(simd::Level level, std::string_view line, char sep,
                  std::vector<std::string_view>& fields);

/// Sparse byte-class position lists collected in the *same* block sweep
/// that builds the newline index, so content validation needs no second
/// pass over the text.  In well-formed input both lists are empty (or
/// tiny: the CRs of CRLF files), so a record's byte-range check collapses
/// to binary searches over these lists instead of a re-scan of its bytes.
struct AsciiProfile {
  std::vector<std::uint32_t> spaces;      ///< positions of ' ' (0x20)
  std::vector<std::uint32_t> violations;  ///< outside [0x20, 0x7E]; '\n'
                                          ///< excluded (it is structure,
                                          ///< not content)
  std::vector<std::uint32_t> carriage;    ///< positions of '\r' (also in
                                          ///< `violations`; listed apart so
                                          ///< CRLF stripping can tell a
                                          ///< trailing CR from a stray
                                          ///< control byte)
};

/// True iff the sorted position list has an entry in [begin, end).
inline bool any_position_in(const std::vector<std::uint32_t>& positions,
                            std::size_t begin, std::size_t end) {
  const auto it = std::lower_bound(positions.begin(), positions.end(),
                                   static_cast<std::uint32_t>(begin));
  return it != positions.end() && *it < end;
}

/// Newline index over a text buffer: every '\n' position found with block
/// masks, built in boundary-aligned chunks on the global ThreadPool when
/// the input crosses `parallel_threshold` bytes.  Chunks scan disjoint
/// byte ranges, so per-chunk position lists concatenate into the global
/// line table without fixups — records that straddle a chunk boundary are
/// stitched back together simply by indexing lines across the seam.
class LineIndex {
 public:
  /// Builds the index.  Throws std::invalid_argument when `text` exceeds
  /// kMaxTextBytes.  When `profile` is non-null the same sweep also
  /// classifies every byte into it (single-pass scan + validate).
  LineIndex(simd::Level level, std::string_view text,
            std::size_t parallel_threshold = kParallelParseBytes,
            AsciiProfile* profile = nullptr);

  /// Number of lines.  A trailing '\n' does not open a final empty line,
  /// matching the byte-at-a-time reference parsers.
  std::size_t line_count() const { return count_; }

  /// Line `i` with the terminating newline excluded and one trailing CR
  /// stripped (CRLF input).
  std::string_view line(std::size_t i) const {
    const std::size_t start = i == 0 ? 0 : newlines_[i - 1] + std::size_t{1};
    std::size_t end =
        i < newlines_.size() ? newlines_[i] : text_.size();
    if (end > start && text_[end - 1] == '\r') --end;
    return text_.substr(start, end - start);
  }

  /// Offset of the first byte of line `i` in the source text.
  std::uint32_t line_start(std::size_t i) const {
    return i == 0 ? 0 : newlines_[i - 1] + 1;
  }

  /// Offset one past the last byte of line `i`, CR *not* stripped.
  std::size_t line_raw_end(std::size_t i) const {
    return i < newlines_.size() ? newlines_[i] : text_.size();
  }

  /// First byte of line `i` ('\n' for an empty line).  When the index was
  /// built with an AsciiProfile the head bytes were collected during the
  /// block sweep, so this reads the side table instead of the text —
  /// structural record checks then touch no text bytes at all.
  char line_head(std::size_t i) const {
    if (!heads_.empty()) return i == 0 ? head0_ : heads_[i - 1];
    const std::size_t s = line_start(i);
    return s < text_.size() ? text_[s] : '\n';
  }

 private:
  std::string_view text_;
  std::vector<std::uint32_t> newlines_;
  std::vector<char> heads_;  // byte after newline k (profile builds only)
  char head0_ = '\n';
  std::size_t count_ = 0;
};

namespace detail {

/// Byte-loop splitter kept as the reference implementation for the
/// differential tests and the sam_fields bench baseline.
void split_fields_reference(std::string_view line, char sep,
                            std::vector<std::string_view>& fields);

/// Byte-loop range check (reference for bytes_in_range).
bool bytes_in_range_reference(std::string_view s, std::uint8_t lo,
                              std::uint8_t hi);

}  // namespace detail

}  // namespace gpf::fmt
