// The on-disk chunk format: fixed batches of records stored as named
// per-column blocks (AGD-style — seq, qual, name, len... each its own
// block) followed by a checksummed footer.
//
// Layout (all integers via ByteWriter, little-endian / LEB128):
//
//   [column 0 bytes][column 1 bytes]...[footer blob][trailer]
//
//   trailer (20 bytes, fixed, at EOF):
//     u64  footer_checksum      FNV-1a of the footer blob
//     u32  footer_size          bytes in the footer blob
//     u64  end_magic            kChunkMagic
//
//   footer blob:
//     u32      version (kChunkVersion)
//     uvarint  record_count
//     uvarint  column_count
//     per column: str name, u8 encoding, uvarint offset, uvarint size,
//                 u64 checksum (FNV-1a of the column bytes)
//
// The footer lives at the END of the file on purpose: a torn write (crash
// mid-write under a non-atomic writer) produces a prefix of the file,
// which cannot contain a valid trailer — so tearing of ANY length is
// detected by the cheapest possible check, before any column byte is
// trusted.  The footer checksum is unkeyed, so parse() also bounds every
// footer field (column count, offsets, sizes) before trusting it.  Every block is additionally fingerprinted so a
// flipped byte anywhere surfaces as ChunkCorruptionError, never as a
// silently-wrong decode.  Writes go through fs::atomic_write_file, so a
// real crash leaves either the old chunk or the new one.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "store/errors.hpp"
#include "store/mmap_file.hpp"

namespace gpf::store {

/// "GPFCHNK1" interpreted as a little-endian u64.
inline constexpr std::uint64_t kChunkMagic = 0x314b4e4843465047ULL;
inline constexpr std::uint32_t kChunkVersion = 1;
/// Fixed trailer size: u64 checksum + u32 footer size + u64 magic.
inline constexpr std::size_t kChunkTrailerBytes = 20;

/// One column block to be written: name, an opaque encoding tag (the
/// codec's business, the format just round-trips it), and the bytes.
struct ColumnSpec {
  std::string name;
  std::uint8_t encoding = 0;
  std::vector<std::uint8_t> bytes;
};

/// Everything needed to write one chunk.
struct ChunkData {
  std::uint64_t records = 0;
  std::vector<ColumnSpec> columns;
};

/// Footer-side description of one stored column.
struct ColumnDesc {
  std::string name;
  std::uint8_t encoding = 0;
  std::size_t offset = 0;
  std::size_t size = 0;
  std::uint64_t checksum = 0;
};

/// Serializes a chunk to its complete file image.
std::vector<std::uint8_t> encode_chunk(const ChunkData& data);

/// Name of the column holding block `block` ("b<block>") in the layouts
/// that store one opaque column per block (shuffle and SAM chunks).
std::string block_column(std::size_t block);

/// A validated, zero-copy view over a chunk's file image.  parse()
/// verifies the trailer and the footer checksum; column bytes are
/// verified on access.  The view does not own the underlying bytes.
class ChunkView {
 public:
  /// Parses the footer.  Throws ChunkFormatError for anything that is not
  /// a structurally complete chunk (truncated/torn file, bad magic,
  /// out-of-range extents) and ChunkCorruptionError when the footer blob
  /// fails its checksum.
  static ChunkView parse(std::span<const std::uint8_t> file_bytes);

  std::uint64_t records() const { return records_; }
  const std::vector<ColumnDesc>& columns() const { return columns_; }

  /// Finds a column by name (nullptr when absent).
  const ColumnDesc* find(std::string_view name) const;

  /// The column's bytes, checksum-validated on every call.  Throws
  /// ChunkFormatError when `name` is absent and ChunkCorruptionError when
  /// the stored bytes no longer match the footer's fingerprint.
  std::span<const std::uint8_t> column(std::string_view name) const;

 private:
  std::span<const std::uint8_t> file_;
  std::uint64_t records_ = 0;
  std::vector<ColumnDesc> columns_;
};

/// A chunk mmap'd from disk with its parsed (and validated) view: what
/// the residency layer caches and pins.
class MappedChunk {
 public:
  /// mmaps `path` and parses the footer; throws the same typed errors as
  /// MappedFile::open / ChunkView::parse.
  static std::shared_ptr<const MappedChunk> open(const std::string& path);

  const std::string& path() const { return path_; }
  const ChunkView& view() const { return view_; }
  /// Mapped size — what this chunk charges against a residency budget.
  std::size_t bytes() const { return file_.size(); }

 private:
  std::string path_;
  MappedFile file_;
  ChunkView view_;
};

}  // namespace gpf::store
