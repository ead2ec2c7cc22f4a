// Tests for the out-of-core chunk store: the on-disk chunk format and its
// torn-write/corruption detection, the memory-budgeted residency layer,
// at-rest damage to the shuffle chunks the spilling backend writes, and
// aligned records saved as SAM chunks.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <unistd.h>

#include "common/bytes.hpp"
#include "common/checksum.hpp"
#include "common/fsio.hpp"
#include "common/rng.hpp"
#include "compress/record_codec.hpp"
#include "store/chunk.hpp"
#include "store/chunk_store.hpp"
#include "store/residency.hpp"
#include "store/sam_chunk.hpp"
#include "store/shuffle_chunk.hpp"

namespace gpf {
namespace {

using store::ChunkCorruptionError;
using store::ChunkData;
using store::ChunkFormatError;
using store::ChunkIoError;
using store::ChunkRef;
using store::ChunkStore;
using store::ChunkStoreConfig;
using store::ChunkView;
using store::ColumnDesc;
using store::ColumnSpec;
using store::MappedChunk;
using store::ResidencyManager;

/// Temp-directory fixture; files are removed on teardown.
class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gpf_store_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

ChunkData sample_chunk(std::size_t records = 3) {
  ChunkData data;
  data.records = records;
  data.columns.push_back(ColumnSpec{"alpha", 1, {1, 2, 3, 4, 5}});
  data.columns.push_back(ColumnSpec{"beta", 2, {9, 8, 7}});
  data.columns.push_back(ColumnSpec{"empty", 0, {}});
  return data;
}

/// A chunk image over `region` zero bytes of column data whose footer
/// blob is `footer` verbatim, under a trailer with a matching checksum —
/// what a hostile writer can produce, since FNV-1a is unkeyed.
std::vector<std::uint8_t> chunk_with_footer(std::size_t region,
                                            const ByteWriter& footer) {
  ByteWriter w;
  for (std::size_t i = 0; i < region; ++i) w.u8(0);
  const std::vector<std::uint8_t>& blob = footer.bytes();
  w.raw(blob);
  w.u64(fnv1a64(blob));
  w.u32(static_cast<std::uint32_t>(blob.size()));
  w.u64(store::kChunkMagic);
  return w.take();
}

// ---------------------------------------------------------------------------
// Chunk format

TEST(ChunkFormat, EncodeParseRoundTrip) {
  const ChunkData data = sample_chunk();
  const std::vector<std::uint8_t> encoded = store::encode_chunk(data);
  const ChunkView view = ChunkView::parse(encoded);
  EXPECT_EQ(view.records(), 3u);
  ASSERT_EQ(view.columns().size(), 3u);
  for (const ColumnSpec& col : data.columns) {
    const auto bytes = view.column(col.name);
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), col.bytes.begin(),
                           col.bytes.end()))
        << col.name;
    EXPECT_EQ(view.find(col.name)->encoding, col.encoding);
  }
  EXPECT_EQ(view.find("nope"), nullptr);
  EXPECT_THROW(view.column("nope"), ChunkFormatError);
}

TEST(ChunkFormat, EmptyChunkRoundTrips) {
  ChunkData data;
  const auto encoded = store::encode_chunk(data);
  const ChunkView view = ChunkView::parse(encoded);
  EXPECT_EQ(view.records(), 0u);
  EXPECT_TRUE(view.columns().empty());
}

TEST(ChunkFormat, EveryTornPrefixIsDetected) {
  // A torn write leaves a strict prefix of the file.  Whatever its length,
  // opening must fail with a typed ChunkError — never a short parse.
  const auto encoded = store::encode_chunk(sample_chunk());
  for (std::size_t keep = 0; keep < encoded.size(); ++keep) {
    EXPECT_THROW(
        ChunkView::parse(std::span<const std::uint8_t>(encoded.data(), keep)),
        store::ChunkError)
        << "prefix of " << keep << " bytes parsed";
  }
}

TEST(ChunkFormat, TruncatedFooterThrowsFormatError) {
  auto encoded = store::encode_chunk(sample_chunk());
  encoded.resize(encoded.size() - 8);
  EXPECT_THROW(ChunkView::parse(encoded), ChunkFormatError);
}

TEST(ChunkFormat, BadMagicThrowsFormatError) {
  auto encoded = store::encode_chunk(sample_chunk());
  encoded.back() ^= 0xff;
  EXPECT_THROW(ChunkView::parse(encoded), ChunkFormatError);
}

TEST(ChunkFormat, FlippedFooterByteThrowsCorruption) {
  auto encoded = store::encode_chunk(sample_chunk());
  encoded[encoded.size() - store::kChunkTrailerBytes - 1] ^= 0x01;
  EXPECT_THROW(ChunkView::parse(encoded), ChunkCorruptionError);
}

TEST(ChunkFormat, WrappingColumnExtentThrowsFormatError) {
  // offset + size wraps to 4, inside the 8-byte column region; the column
  // itself starts 4 bytes before the end of the address space.
  ByteWriter footer;
  footer.u32(store::kChunkVersion);
  footer.uvarint(1);  // records
  footer.uvarint(1);  // columns
  footer.str("a");
  footer.u8(0);
  footer.uvarint(~std::uint64_t{0} - 3);  // offset 2^64 - 4
  footer.uvarint(8);                      // size
  footer.u64(0);
  EXPECT_THROW(ChunkView::parse(chunk_with_footer(8, footer)),
               ChunkFormatError);
}

TEST(ChunkFormat, HugeColumnCountThrowsFormatError) {
  // 2^40 claimed columns with no entries behind them: rejected before any
  // allocation sized by the count.
  ByteWriter footer;
  footer.u32(store::kChunkVersion);
  footer.uvarint(0);
  footer.uvarint(std::uint64_t{1} << 40);
  EXPECT_THROW(ChunkView::parse(chunk_with_footer(0, footer)),
               ChunkFormatError);
}

TEST(ChunkFormat, FlippedColumnByteThrowsCorruptionOnAccess) {
  auto encoded = store::encode_chunk(sample_chunk());
  encoded[1] ^= 0x80;  // inside column "alpha"
  const ChunkView view = ChunkView::parse(encoded);  // footer still intact
  EXPECT_THROW(view.column("alpha"), ChunkCorruptionError);
  EXPECT_NO_THROW(view.column("beta"));
}

// ---------------------------------------------------------------------------
// ChunkStore + mmap

TEST_F(StoreTest, WriteOpenRoundTripLeavesNoTempFiles) {
  ChunkStore cs(ChunkStoreConfig{path("chunks"), 1 << 20});
  const ChunkRef ref = cs.write("c0", sample_chunk());
  EXPECT_EQ(ref.path, cs.chunk_path("c0"));
  EXPECT_EQ(ref.records, 3u);

  const auto chunk = cs.open(ref.path);
  EXPECT_EQ(chunk->view().records(), 3u);
  EXPECT_EQ(chunk->bytes(), ref.bytes);

  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(path("chunks"))) {
    ++files;
    EXPECT_EQ(e.path().extension(), ".gpc") << e.path();
  }
  EXPECT_EQ(files, 1u);
}

TEST_F(StoreTest, MissingChunkThrowsIoErrorWithPath) {
  ChunkStore cs(ChunkStoreConfig{path("chunks"), 1 << 20});
  try {
    cs.open(cs.chunk_path("absent"));
    FAIL() << "expected throw";
  } catch (const ChunkIoError& e) {
    EXPECT_NE(std::string(e.what()).find("absent"), std::string::npos);
  }
}

TEST_F(StoreTest, RewriteInvalidatesResidentMapping) {
  ChunkStore cs(ChunkStoreConfig{path("chunks"), 1 << 20});
  cs.write("c", sample_chunk(3));
  EXPECT_EQ(cs.open(cs.chunk_path("c"))->view().records(), 3u);
  cs.write("c", sample_chunk(7));
  EXPECT_EQ(cs.open(cs.chunk_path("c"))->view().records(), 7u);
}

TEST_F(StoreTest, TornWriteIsDetectedAtOpen) {
  ChunkStore cs(ChunkStoreConfig{path("chunks"), 1 << 20});
  const auto encoded = store::encode_chunk(sample_chunk());
  fs::write_file_prefix_for_testing(cs.chunk_path("torn"), encoded,
                                    encoded.size() / 2);
  EXPECT_THROW(cs.open(cs.chunk_path("torn")), ChunkFormatError);
}

// ---------------------------------------------------------------------------
// Residency

TEST_F(StoreTest, ResidencyEvictsLeastRecentlyUsed) {
  ChunkStore cs(ChunkStoreConfig{path("chunks"), 1 << 20});
  std::vector<std::string> paths;
  std::size_t chunk_bytes = 0;
  for (int i = 0; i < 3; ++i) {
    const ChunkRef ref = cs.write("c" + std::to_string(i), sample_chunk());
    paths.push_back(ref.path);
    chunk_bytes = ref.bytes;
  }
  // Budget fits exactly two chunks.
  ResidencyManager res(2 * chunk_bytes);
  res.acquire(paths[0]);
  res.acquire(paths[1]);
  res.acquire(paths[0]);  // touch: 1 is now the LRU
  res.acquire(paths[2]);  // evicts 1
  auto stats = res.stats();
  EXPECT_EQ(stats.resident_chunks, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  res.acquire(paths[0]);  // still resident
  EXPECT_EQ(res.stats().hits, 2u);
  res.acquire(paths[1]);  // re-opened
  EXPECT_EQ(res.stats().misses, 4u);
}

TEST_F(StoreTest, PinnedChunksAreNotEvicted) {
  ChunkStore cs(ChunkStoreConfig{path("chunks"), 1 << 20});
  const ChunkRef r0 = cs.write("c0", sample_chunk());
  const ChunkRef r1 = cs.write("c1", sample_chunk());
  ResidencyManager res(1);  // budget below a single chunk
  const auto pinned = res.acquire(r0.path);
  // Over budget, but the handle pins c0: it must stay resident.
  EXPECT_EQ(res.stats().resident_chunks, 1u);
  const auto second = res.acquire(r1.path);
  EXPECT_EQ(second->view().records(), 3u);
  EXPECT_EQ(res.stats().resident_chunks, 2u);
  EXPECT_EQ(res.stats().evictions, 0u);
  // The pinned mapping stays valid regardless of residency decisions.
  EXPECT_EQ(pinned->view().records(), 3u);
}

TEST_F(StoreTest, DropForgetsButKeepsHandlesValid) {
  ChunkStore cs(ChunkStoreConfig{path("chunks"), 1 << 20});
  const ChunkRef ref = cs.write("c", sample_chunk());
  ResidencyManager res(1 << 20);
  const auto handle = res.acquire(ref.path);
  res.drop(ref.path);
  EXPECT_EQ(res.stats().resident_chunks, 0u);
  EXPECT_EQ(handle->view().records(), 3u);
  res.acquire(ref.path);
  EXPECT_EQ(res.stats().misses, 2u);
}

// ---------------------------------------------------------------------------
// Shuffle chunks at rest

TEST_F(StoreTest, AtRestDamageSurfacesTypedNeverSilent) {
  ChunkStore cs(ChunkStoreConfig{path("chunks"), 1 << 20});
  std::vector<std::vector<std::uint8_t>> blocks = {{1, 2, 3, 4, 5, 6},
                                                   {7, 8, 9}};
  const std::vector<engine::ShuffleBlockMeta> meta(blocks.size());
  const ChunkRef ref = cs.write(store::shuffle_chunk_name(1, 0),
                                store::make_shuffle_chunk(blocks, meta));
  ASSERT_EQ(cs.open(ref.path)->view().column("b0").size(), 6u);

  // Flip one byte of column b0 on disk behind the store's back, then
  // forget the pristine resident mapping so the next open reads the
  // damaged file.
  {
    std::fstream f(ref.path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    char byte = 0;
    f.seekg(4);
    f.get(byte);
    f.seekp(4);
    f.put(static_cast<char>(byte ^ 0x40));
  }
  cs.residency().drop(ref.path);

  const auto chunk = cs.open(ref.path);  // footer intact: opens fine
  EXPECT_THROW(chunk->view().column("b0"), ChunkCorruptionError);
  EXPECT_NO_THROW(chunk->view().column("b1"));
}

// ---------------------------------------------------------------------------
// SAM chunks

std::vector<SamRecord> sample_records(std::size_t n) {
  Rng rng(311);
  std::vector<SamRecord> out;
  const char bases[] = {'A', 'C', 'G', 'T'};
  for (std::size_t i = 0; i < n; ++i) {
    SamRecord r;
    r.qname = "read" + std::to_string(i);
    r.flag = static_cast<std::uint16_t>(rng.below(0x800));
    r.contig_id = static_cast<std::int32_t>(rng.below(2));
    r.pos = static_cast<std::int64_t>(rng.below(100'000));
    r.mapq = static_cast<std::uint8_t>(rng.below(61));
    std::string seq(80, 'A');
    for (auto& c : seq) c = bases[rng.below(4)];
    r.cigar = {{CigarOp::kMatch, 80}};
    r.sequence = std::move(seq);
    r.quality = std::string(80, static_cast<char>(40 + rng.below(30)));
    out.push_back(std::move(r));
  }
  return out;
}

SamHeader sample_header() {
  SamHeader h;
  h.contigs = {{"chr1", 100'000}, {"chr2", 100'000}};
  h.coordinate_sorted = true;
  return h;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST_F(StoreTest, SamChunkRoundTripsAcrossBlocks) {
  const auto records = sample_records(2 * store::kSamChunkBlockRecords + 7);
  store::save_sam_chunk(path("a.gpc"), sample_header(), records);
  const SamFile loaded = store::load_sam_chunk(path("a.gpc"));
  EXPECT_EQ(loaded.header, sample_header());
  EXPECT_EQ(loaded.records, records);
  // A header column plus three block columns.
  EXPECT_EQ(MappedChunk::open(path("a.gpc"))->view().columns().size(), 4u);
}

TEST_F(StoreTest, SamChunkEmptyRecordSetRoundTrips) {
  store::save_sam_chunk(path("e.gpc"), sample_header(), {});
  const SamFile loaded = store::load_sam_chunk(path("e.gpc"));
  EXPECT_TRUE(loaded.records.empty());
  EXPECT_EQ(loaded.header, sample_header());
}

TEST_F(StoreTest, SamChunkBlockColumnDecodesOnItsOwn) {
  const auto records = sample_records(store::kSamChunkBlockRecords + 100);
  store::save_sam_chunk(path("b.gpc"), sample_header(), records);
  const auto chunk = MappedChunk::open(path("b.gpc"));
  const auto block = decode_sam_batch(
      chunk->view().column(store::block_column(1)), Codec::kGpf);
  EXPECT_EQ(block, std::vector<SamRecord>(
                       records.begin() + store::kSamChunkBlockRecords,
                       records.end()));
}

TEST_F(StoreTest, SamChunkEveryTornPrefixThrowsFormatError) {
  store::save_sam_chunk(path("full.gpc"), sample_header(),
                        sample_records(20));
  const auto bytes = read_file(path("full.gpc"));
  ASSERT_GT(bytes.size(), store::kChunkTrailerBytes);
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    fs::write_file_prefix_for_testing(path("torn.gpc"), bytes, keep);
    EXPECT_THROW(store::load_sam_chunk(path("torn.gpc")), ChunkFormatError)
        << "prefix of " << keep << " bytes";
  }
}

TEST_F(StoreTest, SamChunkFlippedBlockByteThrowsCorruption) {
  store::save_sam_chunk(path("f.gpc"), sample_header(), sample_records(20));
  auto bytes = read_file(path("f.gpc"));
  const ChunkView view = ChunkView::parse(bytes);
  const ColumnDesc* b0 = view.find("b0");
  ASSERT_NE(b0, nullptr);
  bytes[b0->offset + b0->size / 2] ^= 0x10;
  fs::atomic_write_file(path("f.gpc"), bytes);
  EXPECT_THROW(store::load_sam_chunk(path("f.gpc")), ChunkCorruptionError);
}

TEST_F(StoreTest, SamChunkHeaderClaimingTooManyContigsThrowsFormatError) {
  ByteWriter header;
  header.u8(1);
  // 2^40 claimed contigs with room for one: rejected before any
  // allocation sized by the count.
  header.uvarint(std::uint64_t{1} << 40);
  header.str("chr1");
  header.uvarint(100);
  ChunkData data;
  data.columns.push_back({store::kSamHeaderColumn, 0, header.take()});
  fs::atomic_write_file(path("h.gpc"), store::encode_chunk(data));
  EXPECT_THROW(store::load_sam_chunk(path("h.gpc")), ChunkFormatError);
}

TEST_F(StoreTest, SamChunkRecordTotalMismatchThrowsFormatError) {
  // Checksums all match, but the footer claims one record more than the
  // block columns hold.
  const auto records = sample_records(3);
  ByteWriter header;
  header.u8(0);
  header.uvarint(0);
  ChunkData data;
  data.records = records.size() + 1;
  data.columns.push_back({store::kSamHeaderColumn, 0, header.take()});
  data.columns.push_back({store::block_column(0), 0,
                          encode_sam_batch(records, Codec::kGpf)});
  fs::atomic_write_file(path("m.gpc"), store::encode_chunk(data));
  EXPECT_THROW(store::load_sam_chunk(path("m.gpc")), ChunkFormatError);
}

TEST_F(StoreTest, SamChunkRecordLongerCigarThanSeqThrowsFormatError) {
  // Checksums all match, but a record's CIGAR covers more bases than its
  // SEQ holds: every Process would read past the sequence.
  auto records = sample_records(3);
  records[1].cigar = parse_cigar("100M");
  store::save_sam_chunk(path("l.gpc"), sample_header(), records);
  try {
    store::load_sam_chunk(path("l.gpc"));
    ADD_FAILURE() << "loaded a record whose CIGAR outruns its SEQ";
  } catch (const ChunkFormatError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "CIGAR covers 100 query bases but SEQ has 80"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace gpf
