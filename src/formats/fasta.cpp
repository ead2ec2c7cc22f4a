#include "formats/fasta.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <stdexcept>
#include <unordered_map>

#include "common/simd.hpp"
#include "formats/scan.hpp"

namespace gpf {
namespace {

char normalize_base(char c) {
  switch (std::toupper(static_cast<unsigned char>(c))) {
    case 'A':
      return 'A';
    case 'C':
      return 'C';
    case 'G':
      return 'G';
    case 'T':
      return 'T';
    default:
      return 'N';
  }
}

/// The complement of every byte: A/T and C/G swap, anything else is N.
constexpr std::array<char, 256> kComplement = [] {
  std::array<char, 256> t{};
  t.fill('N');
  t['A'] = 'T';
  t['T'] = 'A';
  t['C'] = 'G';
  t['G'] = 'C';
  return t;
}();

}  // namespace

Reference::Reference(std::vector<FastaContig> contigs)
    : contigs_(std::move(contigs)) {
  for (const auto& c : contigs_) total_length_ += c.sequence.size();
}

std::optional<std::int32_t> Reference::find_contig(
    std::string_view name) const {
  for (std::size_t i = 0; i < contigs_.size(); ++i) {
    if (contigs_[i].name == name) return static_cast<std::int32_t>(i);
  }
  return std::nullopt;
}

std::string_view Reference::slice(std::int32_t id, std::int64_t pos,
                                  std::int64_t len) const {
  const auto& seq = contigs_.at(id).sequence;
  if (pos < 0) {
    len += pos;
    pos = 0;
  }
  if (pos >= static_cast<std::int64_t>(seq.size()) || len <= 0) return {};
  const auto avail = static_cast<std::int64_t>(seq.size()) - pos;
  return std::string_view(seq).substr(static_cast<std::size_t>(pos),
                                      static_cast<std::size_t>(
                                          std::min(len, avail)));
}

Reference parse_fasta(std::string_view text) {
  const fmt::LineIndex lines(simd::active_level(), text);
  std::vector<FastaContig> contigs;
  for (std::size_t i = 0; i < lines.line_count(); ++i) {
    const std::string_view line = lines.line(i);
    if (line.empty()) continue;
    if (line.front() == '>') {
      // Header line: name is the first whitespace-delimited token.
      std::string_view header = line.substr(1);
      const std::size_t sp = header.find_first_of(" \t");
      contigs.push_back(
          {std::string(sp == std::string_view::npos ? header
                                                    : header.substr(0, sp)),
           {}});
    } else {
      if (contigs.empty()) {
        throw std::invalid_argument("FASTA: sequence before header");
      }
      auto& seq = contigs.back().sequence;
      seq.reserve(seq.size() + line.size());
      for (const char c : line) seq.push_back(normalize_base(c));
    }
  }
  return Reference(std::move(contigs));
}

std::string write_fasta(const Reference& ref) {
  constexpr std::size_t kWidth = 70;
  std::string out;
  for (const auto& contig : ref.contigs()) {
    out += '>';
    out += contig.name;
    out += '\n';
    for (std::size_t i = 0; i < contig.sequence.size(); i += kWidth) {
      out += contig.sequence.substr(i, kWidth);
      out += '\n';
    }
  }
  return out;
}

std::string reverse_complement(std::string_view seq) {
  std::string out(seq.size(), 'N');
  for (std::size_t i = 0; i < seq.size(); ++i) {
    out[i] = kComplement[static_cast<unsigned char>(seq[seq.size() - 1 - i])];
  }
  return out;
}

}  // namespace gpf
