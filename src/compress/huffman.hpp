// Canonical Huffman coding over a small integer alphabet with an explicit
// end-of-stream symbol, as used by the paper's quality-field compressor
// ("compress the delta sequence using Huffman coding with the end symbol of
// EOF", Fig 6).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "compress/bitio.hpp"

namespace gpf {

/// Huffman coder for symbols in [0, alphabet_size).  Code lengths are
/// capped at 32 bits, which is unreachable for the byte-sized alphabets we
/// use.  The table itself is serializable (code lengths only — canonical
/// codes are reconstructed), so an encoded block is self-describing.
class HuffmanCoder {
 public:
  /// Builds codes from symbol frequencies; zero-frequency symbols get no
  /// code.  At least one symbol must have non-zero frequency.
  static HuffmanCoder from_frequencies(
      std::span<const std::uint64_t> frequencies);

  /// Reconstructs a coder from serialized code lengths.  Throws
  /// std::invalid_argument for a length above 32 or a set whose Kraft sum
  /// exceeds 1; an incomplete set is accepted.
  static HuffmanCoder from_code_lengths(
      std::span<const std::uint8_t> lengths);

  /// Per-symbol code length in bits (0 = symbol has no code).
  const std::vector<std::uint8_t>& code_lengths() const { return lengths_; }

  /// Appends the code for `symbol` to `out`.  Symbol must have a code.
  void encode(std::uint32_t symbol, BitWriter& out) const {
    const std::uint8_t len = lengths_[symbol];
    if (len == 0) throw std::invalid_argument("Huffman: symbol has no code");
    out.bits(codes_[symbol], len);
  }

  /// Decodes one symbol from `in`.  Short codes (the common case) resolve
  /// through a single prefix-table lookup.
  std::uint32_t decode(BitReader& in) const {
    const std::uint32_t window = in.peek(kTableBits);
    const TableEntry entry = table_[window];
    if (entry.length != 0) {
      in.skip(entry.length);
      return entry.symbol;
    }
    return decode_long(in);
  }

  std::size_t alphabet_size() const { return lengths_.size(); }

  static constexpr int kTableBits = 11;
  static constexpr int kMultiSymbols = 4;

  /// One probe of the multi-symbol decode table: every symbol whose code
  /// lies entirely inside a kTableBits-wide window, up to kMultiSymbols per
  /// probe.  `count == 0` means the first code is longer than the window
  /// (fall back to decode()).  bit_ends[k] is the cumulative bit count
  /// consumed after symbols[0..k], so a caller that stops early (e.g. at an
  /// EOF symbol) can skip exactly the bits it used.
  struct MultiEntry {
    std::uint16_t symbols[kMultiSymbols];
    std::uint8_t bit_ends[kMultiSymbols];
    std::uint8_t count = 0;
  };

  /// Looks up the multi-symbol entry for a kTableBits-wide window.  The
  /// caller must ensure at least kTableBits real bits back the window
  /// (BitReader::peek zero-pads past the end, which would fabricate
  /// symbols).
  const MultiEntry& multi_entry(std::uint32_t window) const {
    return multi_[window];
  }

 private:
  struct TableEntry {
    std::uint16_t symbol = 0;
    std::uint8_t length = 0;  // 0 = code longer than kTableBits
  };

  HuffmanCoder() = default;
  void build_canonical();
  std::uint32_t decode_long(BitReader& in) const;

  std::vector<std::uint8_t> lengths_;
  std::vector<std::uint32_t> codes_;  // canonical code per symbol
  // Canonical decode metadata per code length (1..32): first canonical
  // code of that length, index of its first symbol in sorted_symbols_.
  std::vector<std::uint32_t> first_code_;
  std::vector<std::uint32_t> first_index_;
  std::vector<std::uint16_t> count_per_length_;
  std::vector<std::uint32_t> sorted_symbols_;
  // Prefix table for codes of length <= kTableBits.
  std::vector<TableEntry> table_;
  // Multi-symbol decode table (same windows as table_).
  std::vector<MultiEntry> multi_;
};

}  // namespace gpf
