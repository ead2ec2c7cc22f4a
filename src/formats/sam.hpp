// SAM alignment records (SAM spec v1) — the Cleaner stage's working format.
//
// Contigs are referenced by dense integer id into a SamHeader, mirroring
// BAM's numeric reference ids; -1 means unmapped ("*").
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/simd.hpp"
#include "formats/cigar.hpp"
#include "formats/scan.hpp"

namespace gpf {

/// SAM FLAG bits (spec section 1.4.2).
struct SamFlags {
  static constexpr std::uint16_t kPaired = 0x1;
  static constexpr std::uint16_t kProperPair = 0x2;
  static constexpr std::uint16_t kUnmapped = 0x4;
  static constexpr std::uint16_t kMateUnmapped = 0x8;
  static constexpr std::uint16_t kReverse = 0x10;
  static constexpr std::uint16_t kMateReverse = 0x20;
  static constexpr std::uint16_t kFirstOfPair = 0x40;
  static constexpr std::uint16_t kSecondOfPair = 0x80;
  static constexpr std::uint16_t kSecondary = 0x100;
  static constexpr std::uint16_t kQcFail = 0x200;
  static constexpr std::uint16_t kDuplicate = 0x400;
  static constexpr std::uint16_t kSupplementary = 0x800;
};

/// One alignment record.  Positions are 0-based internally (converted
/// to/from SAM's 1-based text form at the parser boundary).
struct SamRecord {
  std::string qname;
  std::uint16_t flag = 0;
  std::int32_t contig_id = -1;  // -1 == unmapped / "*"
  std::int64_t pos = -1;        // 0-based leftmost mapped base
  std::uint8_t mapq = 0;
  Cigar cigar;
  std::int32_t mate_contig_id = -1;
  std::int64_t mate_pos = -1;
  std::int64_t tlen = 0;
  std::string sequence;
  std::string quality;  // Phred+33

  bool is_unmapped() const { return flag & SamFlags::kUnmapped; }
  bool is_reverse() const { return flag & SamFlags::kReverse; }
  bool is_duplicate() const { return flag & SamFlags::kDuplicate; }
  bool is_paired() const { return flag & SamFlags::kPaired; }
  bool is_secondary() const { return flag & SamFlags::kSecondary; }
  bool is_first_of_pair() const { return flag & SamFlags::kFirstOfPair; }

  /// Exclusive end of the reference span covered by this alignment.
  std::int64_t end_pos() const {
    return pos + cigar_reference_length(cigar);
  }

  /// The "unclipped" 5'-start used for duplicate marking: the position the
  /// read would start at if soft clips were part of the alignment.  For
  /// reverse-strand reads this is the unclipped *end*.
  std::int64_t unclipped_start() const;

  bool operator==(const SamRecord&) const = default;
};

/// Sequence dictionary: contig names/lengths, plus the sort state tag.
struct SamHeader {
  struct ContigInfo {
    std::string name;
    std::int64_t length = 0;
    bool operator==(const ContigInfo&) const = default;
  };

  std::vector<ContigInfo> contigs;
  bool coordinate_sorted = false;

  std::int32_t find_contig(std::string_view name) const;

  bool operator==(const SamHeader&) const = default;
};

/// Throws std::invalid_argument when a non-empty QUAL's length differs
/// from SEQ's, or a non-empty CIGAR's query length differs from SEQ's or
/// QUAL's: the Processes read SEQ and QUAL at every base the CIGAR covers.
/// Readers of SAM text and of stored records check every record with it.
void check_record_lengths(const SamRecord& rec);

/// Parses SAM text (header "@" lines populate the returned header).
/// Throws std::invalid_argument on malformed records, including those
/// check_record_lengths() rejects ("*" counts as length 0 there).
struct SamFile {
  SamHeader header;
  std::vector<SamRecord> records;

  bool operator==(const SamFile&) const = default;
};
SamFile parse_sam(std::string_view text);

namespace detail {

/// Byte-at-a-time parser: the reference implementation the block-parallel
/// fast path is differential-tested and benchmarked against.
SamFile parse_sam_reference(std::string_view text);

/// Block-parallel parser with an explicit dispatch level: tab-separator
/// masks split fields, record lines parse concurrently once the input
/// crosses `parallel_threshold` bytes.  Inputs whose "@" header lines are
/// interleaved with records fall back to the reference parser so ordering
/// semantics stay identical.
SamFile parse_sam_at(simd::Level level, std::string_view text,
                     std::size_t parallel_threshold = fmt::kParallelParseBytes);

/// Parses one "@..." header line's fields into `header` (shared by both
/// paths so messages match).
void parse_sam_header_line(const std::vector<std::string_view>& fields,
                           SamHeader& header);

/// Parses one alignment line's tab-split fields against `header` (shared
/// by both paths so messages match).
SamRecord parse_sam_record(simd::Level level,
                           const std::vector<std::string_view>& fields,
                           const SamHeader& header);

}  // namespace detail

/// Renders header + records to SAM text.
std::string write_sam(const SamHeader& header,
                      const std::vector<SamRecord>& records);

/// Total ordering for coordinate sorting: (contig, pos, reverse flag,
/// qname) with unmapped records last.
bool coordinate_less(const SamRecord& a, const SamRecord& b);

}  // namespace gpf
