#include "compress/qual_codec.hpp"

#include <stdexcept>

namespace gpf {
namespace {

std::uint32_t delta_symbol(char prev, char cur) {
  const int delta = static_cast<int>(cur) - static_cast<int>(prev);
  return static_cast<std::uint32_t>(delta + 128);
}

char apply_delta(char prev, std::uint32_t symbol) {
  const int delta = static_cast<int>(symbol) - 128;
  return static_cast<char>(static_cast<int>(prev) + delta);
}

}  // namespace

QualityCodec QualityCodec::train(std::span<const std::string> qualities) {
  std::vector<std::uint64_t> freq(kQualityAlphabet, 1);
  for (const auto& q : qualities) {
    char prev = 0;
    for (const char c : q) {
      ++freq[delta_symbol(prev, c)];
      prev = c;
    }
    freq[kQualityEof] += 4;  // EOF is frequent: once per record
  }
  return QualityCodec(HuffmanCoder::from_frequencies(freq));
}

QualityCodec QualityCodec::from_table(std::span<const std::uint8_t> table) {
  if (table.size() != kQualityAlphabet) {
    throw std::invalid_argument("quality codec table size mismatch");
  }
  return QualityCodec(HuffmanCoder::from_code_lengths(table));
}

std::vector<std::uint8_t> QualityCodec::serialize_table() const {
  return coder_.code_lengths();
}

void QualityCodec::encode(std::string_view quality, BitWriter& out) const {
  char prev = 0;
  for (const char c : quality) {
    coder_.encode(delta_symbol(prev, c), out);
    prev = c;
  }
  coder_.encode(kQualityEof, out);
}

std::string QualityCodec::decode(BitReader& in) const {
  std::string out;
  char prev = 0;
  for (;;) {
    // Fast loop: one probe yields up to kMultiSymbols symbols, while real
    // bits back the window (peek zero-pads past the end of the stream).
    while (in.bits_left() >=
           static_cast<std::size_t>(HuffmanCoder::kTableBits)) {
      const HuffmanCoder::MultiEntry& e =
          coder_.multi_entry(in.peek(HuffmanCoder::kTableBits));
      if (e.count == 0) break;  // long code: one symbol below
      for (int k = 0; k < e.count; ++k) {
        if (e.symbols[k] == kQualityEof) {
          in.skip(e.bit_ends[k]);
          return out;
        }
        prev = apply_delta(prev, e.symbols[k]);
        out.push_back(prev);
      }
      in.skip(e.bit_ends[e.count - 1]);
    }
    const std::uint32_t symbol = coder_.decode(in);
    if (symbol == kQualityEof) return out;
    prev = apply_delta(prev, symbol);
    out.push_back(prev);
  }
}

std::string QualityCodec::decode_reference(BitReader& in) const {
  std::string out;
  char prev = 0;
  for (;;) {
    const std::uint32_t symbol = coder_.decode(in);
    if (symbol == kQualityEof) return out;
    prev = apply_delta(prev, symbol);
    out.push_back(prev);
  }
}

}  // namespace gpf
