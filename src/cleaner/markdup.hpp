// Duplicate marking (Picard MarkDuplicates algorithm): reads sharing the
// same library signature — unclipped 5' positions and orientations of both
// fragment ends — are PCR/optical duplicates; the highest-base-quality
// representative stays, the rest get FLAG 0x400.
//
// This is the paper's first Cleaner application ("marks reads with
// identical position and orientation").
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "formats/sam.hpp"

namespace gpf::cleaner {

struct MarkDuplicatesStats {
  std::size_t records = 0;
  std::size_t duplicates_marked = 0;
  std::size_t signature_groups = 0;

  double duplicate_fraction() const {
    return records == 0
               ? 0.0
               : static_cast<double>(duplicates_marked) /
                     static_cast<double>(records);
  }
};

/// Marks duplicates in place: one decide_duplicates() call over every
/// mapped primary record, in vector order.  The pipeline does not move
/// records to call this; it exchanges DupKeys instead (see
/// core::mark_duplicates).
MarkDuplicatesStats mark_duplicates(std::vector<SamRecord>& records);

/// The signature key used for grouping; exposed for the key exchange
/// (keys are routed so equal signatures land in one partition) and tests.
struct FragmentSignature {
  std::int32_t contig_id = -1;
  std::int64_t unclipped_start = -1;
  bool reverse = false;
  std::int32_t mate_contig_id = -1;
  std::int64_t mate_pos = -1;
  bool mate_reverse = false;

  bool operator==(const FragmentSignature&) const = default;
};
FragmentSignature fragment_signature(const SamRecord& record);

/// FNV-1a over every signature field: routes keys and buckets groups.
std::uint64_t signature_hash(const FragmentSignature& signature);

/// Total base quality, Picard's representative-selection score.
std::int64_t base_quality_score(const SamRecord& record);

/// Mapped primary records take part in marking; the rest are never marked.
bool is_duplicate_candidate(const SamRecord& record);

/// What duplicate marking needs of one record, plus where the record
/// lives: `partition` and `index` name it in the dataset it came from.
/// The qname is kept whole; a digest collision would change which
/// fragment is kept.
struct DupKey {
  FragmentSignature signature;
  std::int64_t score = 0;
  std::string qname;
  std::uint32_t partition = 0;
  std::uint64_t index = 0;

  bool operator==(const DupKey&) const = default;
};
DupKey dup_key(const SamRecord& record, std::uint32_t partition,
               std::uint64_t index);

/// The duplicate rule, once.  `keys` must hold every key of each signature
/// group it touches, in arrival order.  Within a group the first key with
/// the highest score wins, and every key whose qname differs from the
/// winner's is a duplicate.  Appends the
/// positions in `keys` of the duplicates to `marked` and returns the
/// number of signature groups.
std::size_t decide_duplicates(std::span<const DupKey> keys,
                              std::vector<std::size_t>& marked);

/// Key batch codec for the exchange: varint fields, positions and indices
/// delta-coded against the previous key.  `encode` clears `out` first.
void encode_dup_keys(std::span<const DupKey> keys,
                     std::vector<std::uint8_t>& out);
/// Throws std::out_of_range / std::invalid_argument on malformed input.
std::vector<DupKey> decode_dup_keys(std::span<const std::uint8_t> bytes);

}  // namespace gpf::cleaner
