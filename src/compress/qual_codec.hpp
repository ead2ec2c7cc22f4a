// Quality-field compression (paper Sec 4.2, Figs 5/6): quality strings are
// converted to a delta sequence (difference between adjacent quality
// characters, range [-127, 127]; the first character is its raw value) and
// the deltas are Huffman coded with an explicit EOF terminator per record.
//
// Adjacent quality scores are strongly correlated (paper Fig 5b shows the
// delta distribution concentrated around 0), so the delta alphabet has far
// lower entropy than the raw scores.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "compress/bitio.hpp"
#include "compress/huffman.hpp"

namespace gpf {

/// Trained delta+Huffman coder for quality strings.
class QualityCodec {
 public:
  /// Builds the Huffman table from a training sample of quality strings.
  /// Every possible delta gets a minimum frequency of 1 so that records
  /// outside the training set still encode.
  static QualityCodec train(std::span<const std::string> qualities);

  /// Reconstructs a codec from a serialized table (see serialize_table).
  static QualityCodec from_table(std::span<const std::uint8_t> table);

  /// Code lengths for the 257-symbol alphabet (256 delta values + EOF).
  std::vector<std::uint8_t> serialize_table() const;

  /// Appends the delta-coded record plus EOF to `out`.
  void encode(std::string_view quality, BitWriter& out) const;

  /// Decodes one record (up to EOF) through the multi-symbol table.
  std::string decode(BitReader& in) const;

  /// Test oracle and benchmark baseline: decode() one symbol at a time.
  std::string decode_reference(BitReader& in) const;

 private:
  explicit QualityCodec(HuffmanCoder coder) : coder_(std::move(coder)) {}

  HuffmanCoder coder_;
};

/// Delta alphabet layout: symbol = delta + 128 for delta in [-128, 127];
/// EOF is symbol 256.
inline constexpr std::uint32_t kQualityAlphabet = 257;
inline constexpr std::uint32_t kQualityEof = 256;

}  // namespace gpf
