#include "store/chunk.hpp"

#include <utility>

#include "common/bytes.hpp"
#include "common/checksum.hpp"

namespace gpf::store {
namespace {

/// Smallest footer entry one column can take: a 1-byte name length, the
/// encoding byte, 1-byte offset and size uvarints and the u64 checksum.
constexpr std::size_t kMinColumnEntryBytes = 12;

}  // namespace

std::vector<std::uint8_t> encode_chunk(const ChunkData& data) {
  ByteWriter w;
  std::vector<ColumnDesc> descs;
  descs.reserve(data.columns.size());
  for (const ColumnSpec& col : data.columns) {
    ColumnDesc d;
    d.name = col.name;
    d.encoding = col.encoding;
    d.offset = w.size();
    d.size = col.bytes.size();
    d.checksum = fnv1a64(
        std::span<const std::uint8_t>(col.bytes.data(), col.bytes.size()));
    w.raw(std::span<const std::uint8_t>(col.bytes.data(), col.bytes.size()));
    descs.push_back(std::move(d));
  }

  ByteWriter footer;
  footer.u32(kChunkVersion);
  footer.uvarint(data.records);
  footer.uvarint(descs.size());
  for (const ColumnDesc& d : descs) {
    footer.str(d.name);
    footer.u8(d.encoding);
    footer.uvarint(d.offset);
    footer.uvarint(d.size);
    footer.u64(d.checksum);
  }
  const std::vector<std::uint8_t>& blob = footer.bytes();
  w.raw(std::span<const std::uint8_t>(blob.data(), blob.size()));
  w.u64(fnv1a64(std::span<const std::uint8_t>(blob.data(), blob.size())));
  w.u32(static_cast<std::uint32_t>(blob.size()));
  w.u64(kChunkMagic);
  return w.take();
}

std::string block_column(std::size_t block) {
  return std::string("b").append(std::to_string(block));
}

ChunkView ChunkView::parse(std::span<const std::uint8_t> file_bytes) {
  if (file_bytes.size() < kChunkTrailerBytes) {
    throw ChunkFormatError(
        "chunk truncated: " + std::to_string(file_bytes.size()) +
        " bytes, smaller than the trailer — torn write or not a chunk");
  }
  ByteReader trailer(file_bytes.subspan(file_bytes.size() -
                                        kChunkTrailerBytes));
  const std::uint64_t footer_checksum = trailer.u64();
  const std::uint32_t footer_size = trailer.u32();
  const std::uint64_t magic = trailer.u64();
  if (magic != kChunkMagic) {
    throw ChunkFormatError(
        "chunk end magic missing — torn write or not a chunk");
  }
  if (footer_size + kChunkTrailerBytes > file_bytes.size()) {
    throw ChunkFormatError(
        "chunk footer extends past the file (footer_size " +
        std::to_string(footer_size) + ", file " +
        std::to_string(file_bytes.size()) + " bytes)");
  }
  const std::span<const std::uint8_t> blob = file_bytes.subspan(
      file_bytes.size() - kChunkTrailerBytes - footer_size, footer_size);
  if (fnv1a64(blob) != footer_checksum) {
    throw ChunkCorruptionError("chunk footer failed its checksum");
  }

  // The checksum is unkeyed, so a crafted footer can still carry a valid
  // one: every field below is bounded before it is trusted.
  const std::size_t region =
      file_bytes.size() - kChunkTrailerBytes - footer_size;
  ChunkView view;
  view.file_ = file_bytes;
  try {
    ByteReader r(blob);
    const std::uint32_t version = r.u32();
    if (version != kChunkVersion) {
      throw ChunkFormatError("unsupported chunk version " +
                             std::to_string(version));
    }
    view.records_ = r.uvarint();
    const std::uint64_t count = r.uvarint();
    if (count > r.remaining() / kMinColumnEntryBytes) {
      throw ChunkFormatError("chunk footer claims " + std::to_string(count) +
                             " columns in " + std::to_string(r.remaining()) +
                             " bytes");
    }
    view.columns_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      ColumnDesc d;
      d.name = r.str();
      d.encoding = r.u8();
      const std::uint64_t offset = r.uvarint();
      const std::uint64_t size = r.uvarint();
      d.checksum = r.u64();
      if (offset > region || size > region - offset) {
        throw ChunkFormatError("column '" + d.name +
                               "' extends past the chunk's column region");
      }
      d.offset = offset;
      d.size = size;
      view.columns_.push_back(std::move(d));
    }
  } catch (const std::out_of_range&) {
    // The footer checksum matched, so a short read here means the writer
    // produced an inconsistent footer — a format bug, not bit rot.
    throw ChunkFormatError("chunk footer blob is truncated");
  }
  return view;
}

const ColumnDesc* ChunkView::find(std::string_view name) const {
  for (const ColumnDesc& d : columns_) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

std::span<const std::uint8_t> ChunkView::column(std::string_view name) const {
  const ColumnDesc* desc = find(name);
  if (desc == nullptr) {
    throw ChunkFormatError("chunk has no column '" + std::string(name) + "'");
  }
  const std::span<const std::uint8_t> bytes =
      file_.subspan(desc->offset, desc->size);
  if (fnv1a64(bytes) != desc->checksum) {
    throw ChunkCorruptionError("column '" + std::string(name) +
                               "' failed its checksum");
  }
  return bytes;
}

std::shared_ptr<const MappedChunk> MappedChunk::open(const std::string& path) {
  auto chunk = std::make_shared<MappedChunk>();
  chunk->path_ = path;
  chunk->file_ = MappedFile::open(path);
  // Re-throw parse errors with the path prepended, preserving the type so
  // callers can still distinguish torn/format damage from corruption.
  try {
    chunk->view_ = ChunkView::parse(chunk->file_.bytes());
  } catch (const ChunkCorruptionError& e) {
    throw ChunkCorruptionError(path + ": " + e.what());
  } catch (const ChunkFormatError& e) {
    throw ChunkFormatError(path + ": " + e.what());
  }
  return chunk;
}

}  // namespace gpf::store
