// FASTA reference sequences and the in-memory Reference object that the
// aligner, cleaner and caller all share.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gpf {

/// One reference contig (chromosome).
struct FastaContig {
  std::string name;
  std::string sequence;  // upper-case A/C/G/T/N
};

/// An indexed set of contigs.  Contigs are addressed by dense integer id
/// (their load order), which every downstream record uses instead of the
/// name string.
class Reference {
 public:
  Reference() = default;
  explicit Reference(std::vector<FastaContig> contigs);

  std::size_t contig_count() const { return contigs_.size(); }
  const FastaContig& contig(std::int32_t id) const { return contigs_.at(id); }
  /// Total bases across all contigs.
  std::uint64_t total_length() const { return total_length_; }

  /// Returns the dense id for `name`, or nullopt if absent.
  std::optional<std::int32_t> find_contig(std::string_view name) const;

  /// Bases [pos, pos+len) of contig `id`, clamped to the contig end.
  std::string_view slice(std::int32_t id, std::int64_t pos,
                         std::int64_t len) const;

  const std::vector<FastaContig>& contigs() const { return contigs_; }

 private:
  std::vector<FastaContig> contigs_;
  std::uint64_t total_length_ = 0;
};

/// Parses FASTA text (">name desc\nACGT...").  Lower-case bases are
/// upper-cased; any letter outside ACGT becomes N.
Reference parse_fasta(std::string_view text);

/// Renders a Reference back to FASTA with fixed 70-column wrapping.
std::string write_fasta(const Reference& ref);

/// Reverse-complements a DNA string: A<->T and C<->G swap, any other byte
/// becomes N.
std::string reverse_complement(std::string_view seq);

}  // namespace gpf
