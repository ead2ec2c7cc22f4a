// Aligned records as a chunk: the on-disk form of a SAM file.
//
// The paper's pipelines read and write alignment files at their edges
// (Fig 1's storage subsystem).  Here such a file is one chunk:
//
//   "header"  u8 coordinate_sorted, uvarint contig_count,
//             per contig: str name, uvarint length
//   "b0", "b1", ...  (block_column) one column per kSamChunkBlockRecords
//             records, each encode_sam_batch(..., Codec::kGpf) bytes
//
// the same one-opaque-column-per-block layout as store/shuffle_chunk.  A
// block column decodes on its own, so a reader can hand blocks to tasks.
// The chunk format supplies the integrity: a torn or truncated file fails
// at open, and a flipped byte fails its column's checksum before that
// column is decoded, so damage is a typed ChunkError, never records.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "formats/sam.hpp"
#include "store/chunk.hpp"

namespace gpf::store {

/// Records per block column.
inline constexpr std::size_t kSamChunkBlockRecords = 4096;

/// Name of the column holding the header.
inline constexpr const char* kSamHeaderColumn = "header";

/// Writes `header` + `records` to `path` as one chunk, atomically.
void save_sam_chunk(const std::string& path, const SamHeader& header,
                    std::span<const SamRecord> records);

/// Reads a chunk written by save_sam_chunk.  Throws the MappedChunk::open
/// and ChunkView::column errors, and ChunkFormatError for a malformed
/// header or block column, a record check_record_lengths() rejects, or a
/// decoded record total that differs from the footer's.
SamFile load_sam_chunk(const std::string& path);

}  // namespace gpf::store
