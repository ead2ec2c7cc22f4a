#include "store/sam_chunk.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "common/bytes.hpp"
#include "common/fsio.hpp"
#include "compress/record_codec.hpp"

namespace gpf::store {
namespace {

/// Smallest header entry one contig can take: a 1-byte name length and a
/// 1-byte length uvarint.
constexpr std::size_t kMinContigEntryBytes = 2;

std::vector<std::uint8_t> encode_header(const SamHeader& header) {
  ByteWriter w;
  w.u8(header.coordinate_sorted ? 1 : 0);
  w.uvarint(header.contigs.size());
  for (const auto& c : header.contigs) {
    w.str(c.name);
    w.uvarint(static_cast<std::uint64_t>(c.length));
  }
  return w.take();
}

SamHeader decode_header(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  SamHeader header;
  const std::uint8_t sorted = r.u8();
  if (sorted > 1) throw std::invalid_argument("bad coordinate_sorted flag");
  header.coordinate_sorted = sorted == 1;
  const std::uint64_t contigs = r.uvarint();
  if (contigs > r.remaining() / kMinContigEntryBytes) {
    throw std::invalid_argument("claims " + std::to_string(contigs) +
                                " contigs in " +
                                std::to_string(r.remaining()) + " bytes");
  }
  header.contigs.reserve(contigs);
  for (std::uint64_t i = 0; i < contigs; ++i) {
    SamHeader::ContigInfo info;
    info.name = r.str();
    info.length = static_cast<std::int64_t>(r.uvarint());
    header.contigs.push_back(std::move(info));
  }
  if (!r.done()) throw std::invalid_argument("trailing bytes");
  return header;
}

}  // namespace

void save_sam_chunk(const std::string& path, const SamHeader& header,
                    std::span<const SamRecord> records) {
  ChunkData data;
  data.records = records.size();
  data.columns.push_back({kSamHeaderColumn, 0, encode_header(header)});
  for (std::size_t lo = 0, b = 0; lo < records.size();
       lo += kSamChunkBlockRecords, ++b) {
    const std::size_t n = std::min(kSamChunkBlockRecords, records.size() - lo);
    data.columns.push_back({block_column(b), 0,
                            encode_sam_batch(records.subspan(lo, n),
                                             Codec::kGpf)});
  }
  fs::atomic_write_file(path, encode_chunk(data));
}

SamFile load_sam_chunk(const std::string& path) {
  const auto chunk = MappedChunk::open(path);
  const ChunkView& view = chunk->view();
  SamFile file;
  std::string column = kSamHeaderColumn;
  // Column errors gain the path; a column that passed its checksum but
  // does not decode was written wrong (or crafted): a format error.
  try {
    file.header = decode_header(view.column(column));
    for (std::size_t b = 0; b + 1 < view.columns().size(); ++b) {
      column = block_column(b);
      auto block = decode_sam_batch(view.column(column), Codec::kGpf);
      for (const auto& rec : block) check_record_lengths(rec);
      file.records.insert(file.records.end(),
                          std::make_move_iterator(block.begin()),
                          std::make_move_iterator(block.end()));
    }
  } catch (const ChunkCorruptionError& e) {
    throw ChunkCorruptionError(path + ": " + e.what());
  } catch (const ChunkFormatError& e) {
    throw ChunkFormatError(path + ": " + e.what());
  } catch (const std::logic_error& e) {
    throw ChunkFormatError(path + ": column '" + column + "': " + e.what());
  }
  if (file.records.size() != view.records()) {
    throw ChunkFormatError(path + ": decoded " +
                           std::to_string(file.records.size()) +
                           " records, footer says " +
                           std::to_string(view.records()));
  }
  return file;
}

}  // namespace gpf::store
