// Unit and property tests for src/compress: bit I/O, Huffman, the 2-bit
// sequence codec, the delta/Huffman quality codec, and the three record
// serializers.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "compress/bitio.hpp"
#include "compress/huffman.hpp"
#include "compress/qual_codec.hpp"
#include "compress/record_codec.hpp"
#include "compress/seq_codec.hpp"
#include "test_levels.hpp"

namespace gpf {
namespace {

// --- bit I/O -------------------------------------------------------------

TEST(BitIo, SingleBitsRoundTrip) {
  BitWriter w;
  const bool bits[] = {true, false, true, true, false, false, true, false,
                       true, true};
  for (const bool b : bits) w.bit(b);
  const auto bytes = w.finish();
  BitReader r(std::span(bytes.data(), bytes.size()));
  for (const bool b : bits) EXPECT_EQ(r.bit(), b);
}

TEST(BitIo, MultiBitValues) {
  BitWriter w;
  w.bits(0b101101, 6);
  w.bits(0xffff, 16);
  w.bits(0, 3);
  const auto bytes = w.finish();
  BitReader r(std::span(bytes.data(), bytes.size()));
  EXPECT_EQ(r.bits(6), 0b101101u);
  EXPECT_EQ(r.bits(16), 0xffffu);
  EXPECT_EQ(r.bits(3), 0u);
}

TEST(BitIo, ReadPastEndThrows) {
  BitWriter w;
  w.bit(true);
  const auto bytes = w.finish();
  BitReader r(std::span(bytes.data(), bytes.size()));
  r.bits(8);  // padded byte is readable
  EXPECT_THROW(r.bit(), std::out_of_range);
}

// --- Huffman -------------------------------------------------------------

TEST(Huffman, RoundTripSkewedAlphabet) {
  std::vector<std::uint64_t> freq(8, 0);
  freq[0] = 1000;
  freq[1] = 200;
  freq[2] = 50;
  freq[3] = 1;
  const HuffmanCoder coder = HuffmanCoder::from_frequencies(freq);
  BitWriter w;
  const std::vector<std::uint32_t> message = {0, 0, 1, 2, 3, 0, 1, 0};
  for (const auto s : message) coder.encode(s, w);
  const auto bytes = w.finish();
  BitReader r(std::span(bytes.data(), bytes.size()));
  for (const auto s : message) EXPECT_EQ(coder.decode(r), s);
}

TEST(Huffman, FrequentSymbolsGetShorterCodes) {
  std::vector<std::uint64_t> freq = {1000, 10, 10, 10};
  const HuffmanCoder coder = HuffmanCoder::from_frequencies(freq);
  EXPECT_LT(coder.code_lengths()[0], coder.code_lengths()[3]);
}

TEST(Huffman, SingleSymbolAlphabet) {
  std::vector<std::uint64_t> freq = {0, 5, 0};
  const HuffmanCoder coder = HuffmanCoder::from_frequencies(freq);
  BitWriter w;
  coder.encode(1, w);
  coder.encode(1, w);
  const auto bytes = w.finish();
  BitReader r(std::span(bytes.data(), bytes.size()));
  EXPECT_EQ(coder.decode(r), 1u);
  EXPECT_EQ(coder.decode(r), 1u);
}

TEST(Huffman, AllZeroFrequenciesThrows) {
  std::vector<std::uint64_t> freq(4, 0);
  EXPECT_THROW(HuffmanCoder::from_frequencies(freq), std::invalid_argument);
}

TEST(Huffman, SerializedTableReproducesCodes) {
  Rng rng(31);
  std::vector<std::uint64_t> freq(257);
  for (auto& f : freq) f = 1 + rng.below(10000);
  const HuffmanCoder coder = HuffmanCoder::from_frequencies(freq);
  const HuffmanCoder copy = HuffmanCoder::from_code_lengths(
      coder.code_lengths());
  BitWriter w;
  for (std::uint32_t s = 0; s < 257; ++s) coder.encode(s, w);
  const auto bytes = w.finish();
  BitReader r(std::span(bytes.data(), bytes.size()));
  for (std::uint32_t s = 0; s < 257; ++s) EXPECT_EQ(copy.decode(r), s);
}

// The lengths come off the wire (the GPF record codec passes the
// serialized quality table straight through), so a hostile table must be
// rejected before build_canonical indexes its per-length tables with it.
TEST(Huffman, OversubscribedLengthsThrow) {
  // 64 one-bit codes: Kraft sum 32.
  EXPECT_THROW(HuffmanCoder::from_code_lengths(
                   std::vector<std::uint8_t>(64, 1)),
               std::invalid_argument);
  // One code too many for a complete set: 1 + 1/2 + 1/2.
  EXPECT_THROW(HuffmanCoder::from_code_lengths(
                   std::vector<std::uint8_t>{1, 2, 2, 2}),
               std::invalid_argument);
  // Complete and incomplete sets stay valid.
  EXPECT_NO_THROW(HuffmanCoder::from_code_lengths(
      std::vector<std::uint8_t>{1, 2, 3, 3}));
  EXPECT_NO_THROW(HuffmanCoder::from_code_lengths(
      std::vector<std::uint8_t>{0, 1, 0}));
  EXPECT_NO_THROW(HuffmanCoder::from_code_lengths(
      std::vector<std::uint8_t>{1, 32}));
}

TEST(Huffman, OverlongLengthThrows) {
  EXPECT_THROW(HuffmanCoder::from_code_lengths(
                   std::vector<std::uint8_t>{1, 200}),
               std::invalid_argument);
  EXPECT_THROW(HuffmanCoder::from_code_lengths(
                   std::vector<std::uint8_t>{33, 1}),
               std::invalid_argument);
}

TEST(Huffman, RandomRoundTripProperty) {
  Rng rng(37);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint64_t> freq(64);
    for (auto& f : freq) f = rng.below(100);  // some zeros
    freq[rng.below(64)] = 1 + rng.below(1000);  // at least one non-zero
    const HuffmanCoder coder = HuffmanCoder::from_frequencies(freq);
    std::vector<std::uint32_t> message;
    for (std::uint32_t s = 0; s < 64; ++s) {
      if (coder.code_lengths()[s] > 0) {
        message.push_back(s);
        message.push_back(s);
      }
    }
    BitWriter w;
    for (const auto s : message) coder.encode(s, w);
    const auto bytes = w.finish();
    BitReader r(std::span(bytes.data(), bytes.size()));
    for (const auto s : message) ASSERT_EQ(coder.decode(r), s);
  }
}

// --- sequence codec --------------------------------------------------------

TEST(SeqCodec, PlainRoundTrip) {
  std::string qual = "IIIIIIIII";
  const auto compressed = compress_sequence("GGTTACCTA", qual);
  EXPECT_EQ(compressed.length, 9u);
  EXPECT_EQ(compressed.packed.size(), 3u);  // ceil(9/4)
  std::string qual2 = qual;
  EXPECT_EQ(decompress_sequence(compressed, qual2), "GGTTACCTA");
  EXPECT_EQ(qual2, "IIIIIIIII");
}

TEST(SeqCodec, PaperExampleWithN) {
  // Paper Fig 4: GGTTNCCTA / CCCB#FFFF -> N escaped to A with sentinel
  // quality; decompression restores N and '#'.
  std::string qual = "CCCB#FFFF";
  const auto compressed = compress_sequence("GGTTNCCTA", qual);
  EXPECT_EQ(qual[4], kEscapeQuality);  // sentinel written in place
  std::string seq = decompress_sequence(compressed, qual);
  EXPECT_EQ(seq, "GGTTNCCTA");
  EXPECT_EQ(qual, "CCCB#FFFF");
}

TEST(SeqCodec, CompressionIsFourToOne) {
  std::string qual(1000, 'F');
  const auto compressed = compress_sequence(std::string(1000, 'C'), qual);
  // ~4x: 1000 bases -> 250 bytes (paper: "improves storage by
  // approximately four times").
  EXPECT_EQ(compressed.packed.size(), 250u);
}

TEST(SeqCodec, LengthMismatchThrows) {
  std::string qual = "II";
  EXPECT_THROW(compress_sequence("ACGT", qual), std::invalid_argument);
}

TEST(SeqCodec, RandomRoundTripProperty) {
  Rng rng(41);
  const char bases[] = {'A', 'C', 'G', 'T', 'N'};
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t len = 1 + rng.below(300);
    std::string seq(len, 'A'), qual(len, 'A');
    for (std::size_t i = 0; i < len; ++i) {
      seq[i] = bases[rng.below(5)];
      qual[i] = static_cast<char>(35 + rng.below(40));
    }
    std::string work_qual = qual;
    const auto compressed = compress_sequence(seq, work_qual);
    const std::string out = decompress_sequence(compressed, work_qual);
    ASSERT_EQ(out, seq);
    // Non-N positions keep their original quality.
    for (std::size_t i = 0; i < len; ++i) {
      if (seq[i] != 'N') {
        ASSERT_EQ(work_qual[i], qual[i]);
      }
    }
  }
}

// --- quality codec -----------------------------------------------------------

TEST(QualCodec, RoundTrip) {
  const std::vector<std::string> quals = {"CCCBFFFF", "IIIIHHGG", "AB"};
  const QualityCodec codec = QualityCodec::train(quals);
  BitWriter w;
  for (const auto& q : quals) codec.encode(q, w);
  const auto bytes = w.finish();
  BitReader r(std::span(bytes.data(), bytes.size()));
  for (const auto& q : quals) EXPECT_EQ(codec.decode(r), q);
}

TEST(QualCodec, EmptyStringRoundTrip) {
  const std::vector<std::string> quals = {"ABC"};
  const QualityCodec codec = QualityCodec::train(quals);
  BitWriter w;
  codec.encode("", w);
  codec.encode("ABC", w);
  const auto bytes = w.finish();
  BitReader r(std::span(bytes.data(), bytes.size()));
  EXPECT_EQ(codec.decode(r), "");
  EXPECT_EQ(codec.decode(r), "ABC");
}

TEST(QualCodec, TableSerializationRoundTrip) {
  const std::vector<std::string> quals = {"FFFFFFGGFF", "EEEEFFFFGG"};
  const QualityCodec codec = QualityCodec::train(quals);
  const auto table = codec.serialize_table();
  EXPECT_EQ(table.size(), kQualityAlphabet);
  const QualityCodec copy = QualityCodec::from_table(table);
  BitWriter w;
  copy.encode(quals[0], w);
  const auto bytes = w.finish();
  BitReader r(std::span(bytes.data(), bytes.size()));
  EXPECT_EQ(codec.decode(r), quals[0]);
}

TEST(QualCodec, ConcentratedDeltasCompressWell) {
  // Realistic quality strings (small adjacent deltas) should compress to
  // well under 8 bits per character.
  Rng rng(43);
  std::vector<std::string> quals;
  for (int i = 0; i < 200; ++i) {
    std::string q(100, 'F');
    char level = 'F';
    for (auto& c : q) {
      level = static_cast<char>(level + static_cast<int>(rng.below(3)) - 1);
      c = level;
    }
    quals.push_back(std::move(q));
  }
  const QualityCodec codec = QualityCodec::train(quals);
  BitWriter w;
  for (const auto& q : quals) codec.encode(q, w);
  const auto bytes = w.finish();
  const double bits_per_char =
      8.0 * static_cast<double>(bytes.size()) / (200.0 * 100.0);
  EXPECT_LT(bits_per_char, 4.0);
}

// --- record codecs (parameterized over all three serializers) -----------------

class RecordCodecTest : public ::testing::TestWithParam<Codec> {};

std::vector<FastqRecord> sample_fastq(int n) {
  Rng rng(47);
  std::vector<FastqRecord> out;
  const char bases[] = {'A', 'C', 'G', 'T', 'N'};
  for (int i = 0; i < n; ++i) {
    const std::size_t len = 50 + rng.below(60);
    FastqRecord r;
    r.name = "read" + std::to_string(i) + "/1";
    r.sequence.resize(len);
    r.quality.resize(len);
    for (std::size_t j = 0; j < len; ++j) {
      r.sequence[j] = bases[rng.below(20) == 0 ? 4 : rng.below(4)];
      r.quality[j] = static_cast<char>(35 + rng.below(40));
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<SamRecord> sample_sam(int n) {
  Rng rng(53);
  auto fastq = sample_fastq(n);
  std::vector<SamRecord> out;
  for (int i = 0; i < n; ++i) {
    SamRecord r;
    r.qname = fastq[i].name;
    r.flag = static_cast<std::uint16_t>(rng.below(0x800));
    r.contig_id = static_cast<std::int32_t>(rng.below(3));
    r.pos = static_cast<std::int64_t>(rng.below(1000000));
    r.mapq = static_cast<std::uint8_t>(rng.below(61));
    r.cigar = {{CigarOp::kMatch,
                static_cast<std::uint32_t>(fastq[i].sequence.size())}};
    r.mate_contig_id = r.contig_id;
    r.mate_pos = r.pos + 300;
    r.tlen = 400;
    r.sequence = fastq[i].sequence;
    r.quality = fastq[i].quality;
    out.push_back(std::move(r));
  }
  return out;
}

TEST_P(RecordCodecTest, FastqRoundTrip) {
  const auto records = sample_fastq(40);
  const auto bytes = encode_fastq_batch(records, GetParam());
  const auto decoded = decode_fastq_batch(bytes, GetParam());
  EXPECT_EQ(decoded, records);
}

TEST_P(RecordCodecTest, FastqPairRoundTrip) {
  auto flat = sample_fastq(20);
  std::vector<FastqPair> pairs;
  for (std::size_t i = 0; i + 1 < flat.size(); i += 2) {
    pairs.push_back({flat[i], flat[i + 1]});
  }
  const auto bytes = encode_fastq_pair_batch(pairs, GetParam());
  EXPECT_EQ(decode_fastq_pair_batch(bytes, GetParam()), pairs);
}

TEST_P(RecordCodecTest, SamRoundTrip) {
  const auto records = sample_sam(40);
  const auto bytes = encode_sam_batch(records, GetParam());
  EXPECT_EQ(decode_sam_batch(bytes, GetParam()), records);
}

TEST_P(RecordCodecTest, VcfRoundTrip) {
  std::vector<VcfRecord> records = {
      {0, 100, "rs1", "A", "C", 50.0, Genotype::kHet},
      {1, 5000, ".", "AT", "A", 99.5, Genotype::kHomAlt},
      {2, 1, ".", "G", "GTTT", 10.0, Genotype::kHomRef},
  };
  const auto bytes = encode_vcf_batch(records, GetParam());
  EXPECT_EQ(decode_vcf_batch(bytes, GetParam()), records);
}

TEST_P(RecordCodecTest, EmptyBatchRoundTrip) {
  const auto bytes = encode_fastq_batch({}, GetParam());
  EXPECT_TRUE(decode_fastq_batch(bytes, GetParam()).empty());
}

TEST_P(RecordCodecTest, CodecMismatchThrows) {
  const auto bytes = encode_fastq_batch(sample_fastq(2), GetParam());
  const Codec other =
      GetParam() == Codec::kGpf ? Codec::kKryoLike : Codec::kGpf;
  EXPECT_THROW(decode_fastq_batch(bytes, other), std::invalid_argument);
}

/// `batch` with its record count, the varint after the 4-byte magic and the
/// codec byte, rewritten to `count`.
std::vector<std::uint8_t> with_record_count(
    const std::vector<std::uint8_t>& batch, std::uint64_t count) {
  std::size_t end = 5;
  while (batch.at(end) & 0x80) ++end;
  ByteWriter w;
  w.raw(std::span(batch).first(5));
  w.uvarint(count);
  w.raw(std::span(batch).subspan(end + 1));
  return w.take();
}

// A count of 2^40 records passed to reserve() would ask for terabytes
// (bad_alloc in a plain build, an abort under ASan); the decoders must
// reject it against the bytes left, with the reader's truncation error.
TEST_P(RecordCodecTest, HugeRecordCountThrowsBeforeAllocating) {
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
  const Codec codec = GetParam();
  auto flat = sample_fastq(4);
  const std::vector<FastqPair> pairs = {
      {flat[0], flat[1]},
      {flat[2], flat[3]},
  };
  const std::vector<VcfRecord> vcf = {
      {0, 100, "rs1", "A", "C", 50.0, Genotype::kHet},
  };
  const auto fastq = encode_fastq_batch(flat, codec);
  const auto pair = encode_fastq_pair_batch(pairs, codec);
  const auto sam = encode_sam_batch(sample_sam(4), codec);
  const auto vcf_bytes = encode_vcf_batch(vcf, codec);
  // The rewrite keeps a valid batch valid.
  ASSERT_EQ(decode_fastq_batch(with_record_count(fastq, 4), codec), flat);
  EXPECT_THROW(decode_fastq_batch(with_record_count(fastq, kHuge), codec),
               std::out_of_range);
  EXPECT_THROW(decode_fastq_pair_batch(with_record_count(pair, kHuge), codec),
               std::out_of_range);
  EXPECT_THROW(decode_sam_batch(with_record_count(sam, kHuge), codec),
               std::out_of_range);
  EXPECT_THROW(decode_vcf_batch(with_record_count(vcf_bytes, kHuge), codec),
               std::out_of_range);
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, RecordCodecTest,
                         ::testing::Values(Codec::kJavaLike, Codec::kKryoLike,
                                           Codec::kGpf),
                         [](const auto& info) {
                           return codec_name(info.param);
                         });

// A SAM record's CIGAR element count gets the same bound.  Kryo-like and GPF
// write it as a varint; the Java-like codec writes the CIGAR as text.
TEST(RecordCodecHostile, HugeCigarCountThrowsBeforeAllocating) {
  SamRecord rec;
  rec.qname = "cigar-count-probe";
  rec.flag = 0;
  rec.contig_id = 0;
  rec.pos = 0;
  rec.mapq = 0;
  rec.cigar = {{CigarOp::kMatch, 4}};
  rec.sequence = "ACGT";
  rec.quality = "IIII";
  for (const Codec codec : {Codec::kKryoLike, Codec::kGpf}) {
    const auto bytes = encode_sam_batch(std::vector<SamRecord>{rec}, codec);
    // The fixed fields: qname, then one byte each for flag, contig, pos and
    // mapq (all zero), then the CIGAR count.
    const auto name = std::ranges::search(bytes, rec.qname).begin();
    ASSERT_NE(name, bytes.end()) << codec_name(codec);
    const auto name_at = static_cast<std::size_t>(name - bytes.begin());
    const std::size_t at = name_at + rec.qname.size() + 4;
    ASSERT_EQ(bytes.at(at), 1) << codec_name(codec);
    ByteWriter w;
    w.raw(std::span(bytes).first(at));
    w.uvarint(std::uint64_t{1} << 40);
    w.raw(std::span(bytes).subspan(at + 1));
    EXPECT_THROW(decode_sam_batch(w.bytes(), codec), std::out_of_range)
        << codec_name(codec);
  }
}

// A GPF SAM batch whose embedded quality table (257 code lengths after
// the header) is overwritten with 1s must throw, not corrupt the heap.
TEST(RecordCodecHostile, GpfOversubscribedQualityTableThrows) {
  const auto bytes = encode_sam_batch(sample_sam(8), Codec::kGpf);
  // Magic (4 bytes), codec byte, record count (1 byte), then the table
  // size as a varint (257 = 0x81 0x02) and the table itself.
  constexpr std::size_t kTableAt = 8;
  ASSERT_EQ(bytes.at(6), 0x81);
  ASSERT_EQ(bytes.at(7), 0x02);
  ASSERT_EQ(decode_sam_batch(bytes, Codec::kGpf), sample_sam(8));
  std::vector<std::uint8_t> hostile = bytes;
  std::fill_n(hostile.begin() + kTableAt, kQualityAlphabet, 1);
  EXPECT_THROW(decode_sam_batch(hostile, Codec::kGpf), std::invalid_argument);
  hostile = bytes;
  hostile.at(kTableAt) = 200;
  EXPECT_THROW(decode_sam_batch(hostile, Codec::kGpf), std::invalid_argument);
}

TEST(RecordCodecSizes, GpfSmallerThanKryoSmallerThanJava) {
  // The paper's serialization hierarchy: GPF < Kryo << Java.
  const auto records = sample_fastq(200);
  const auto gpf = encode_fastq_batch(records, Codec::kGpf).size();
  const auto kryo = encode_fastq_batch(records, Codec::kKryoLike).size();
  const auto java = encode_fastq_batch(records, Codec::kJavaLike).size();
  EXPECT_LT(gpf, kryo);
  EXPECT_LT(kryo, java);
  // Java's UTF-16 payload alone is ~2x Kryo.
  EXPECT_GT(static_cast<double>(java) / static_cast<double>(kryo), 1.8);
}

TEST(RecordCodecSizes, SamCompressionRateLowerThanFastq) {
  // Paper Table 3: SAM stages compress slightly worse than FASTQ because
  // the extra fields stay uncompressed.
  const auto fastq = sample_fastq(200);
  const auto sam = sample_sam(200);
  const double fastq_ratio =
      static_cast<double>(encode_fastq_batch(fastq, Codec::kKryoLike).size()) /
      static_cast<double>(encode_fastq_batch(fastq, Codec::kGpf).size());
  const double sam_ratio =
      static_cast<double>(encode_sam_batch(sam, Codec::kKryoLike).size()) /
      static_cast<double>(encode_sam_batch(sam, Codec::kGpf).size());
  EXPECT_GT(fastq_ratio, sam_ratio);
  EXPECT_GT(sam_ratio, 1.0);
}

TEST(RecordCodecInto, InPlaceEncodersMatchAllocating) {
  const auto fastq = sample_fastq(64);
  const auto sam = sample_sam(64);
  for (const Codec codec :
       {Codec::kJavaLike, Codec::kKryoLike, Codec::kGpf}) {
    // Start from a dirty, preallocated buffer: the in-place encoders must
    // clear it and produce the exact allocating output.
    std::vector<std::uint8_t> out(333, 0xee);
    encode_fastq_batch_into(fastq, codec, out);
    EXPECT_EQ(out, encode_fastq_batch(fastq, codec)) << codec_name(codec);
    encode_sam_batch_into(sam, codec, out);
    EXPECT_EQ(out, encode_sam_batch(sam, codec)) << codec_name(codec);
  }
}

TEST(LiveSize, AccountsForHeapStrings) {
  FastqRecord small{"n", "AC", "II"};
  FastqRecord big{"n", std::string(1000, 'A'), std::string(1000, 'I')};
  EXPECT_GT(live_size(big), live_size(small) + 1500);
}

// --- cross-level SIMD equivalence -----------------------------------------

/// Asserts every runnable level compresses `seq` byte-identically to the
/// one-base-at-a-time reference (packed payload, rewritten quality), and
/// that decompress_sequence restores what the reference unpack restores.
void expect_levels_agree(const std::string& seq, const std::string& qual) {
  std::string ref_qual = qual;
  const auto ref = detail::compress_sequence_reference(seq, ref_qual);
  for (const simd::Level level : tests::runnable_levels()) {
    std::string q = qual;
    const auto got = detail::compress_sequence_at(level, seq, q);
    ASSERT_EQ(got.length, ref.length) << simd::level_name(level);
    ASSERT_EQ(got.packed, ref.packed) << simd::level_name(level);
    ASSERT_EQ(q, ref_qual) << simd::level_name(level);
  }
  std::string dq_ref = ref_qual;
  std::string dq = ref_qual;
  const std::string want = detail::decompress_sequence_reference(ref, dq_ref);
  const std::string out = decompress_sequence(ref, dq);
  ASSERT_EQ(out, want);
  ASSERT_EQ(dq, dq_ref);
  // Any special base round-trips as 'N' (the escape is N-restoring).
  std::string expected = seq;
  for (auto& c : expected) {
    if (c != 'A' && c != 'C' && c != 'G' && c != 'T') c = 'N';
  }
  ASSERT_EQ(out, expected);
}

TEST(SeqCodecSimd, RandomReadsAllLevelsBitIdentical) {
  Rng rng(137);
  const char bases[] = {'A', 'C', 'G', 'T'};
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t len = rng.below(400);
    std::string seq(len, 'A'), qual(len, 'I');
    for (std::size_t i = 0; i < len; ++i) {
      seq[i] = bases[rng.below(4)];
      qual[i] = static_cast<char>(35 + rng.below(40));
    }
    // A quarter of the reads carry N runs (escape fallback blocks).
    if (trial % 4 == 0 && len >= 8) {
      const std::size_t at = rng.below(len - 4);
      const std::size_t run = 1 + rng.below(4);
      for (std::size_t i = at; i < at + run; ++i) seq[i] = 'N';
    }
    expect_levels_agree(seq, qual);
  }
}

TEST(SeqCodecSimd, EdgeLengthsAndSpecialPlacements) {
  // Lengths straddling the 4-base byte, 8-base SWAR and 32-base AVX2
  // strides, with every length % 4 residue.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{4}, std::size_t{5}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{15}, std::size_t{16}, std::size_t{17},
        std::size_t{31}, std::size_t{32}, std::size_t{33}, std::size_t{63},
        std::size_t{64}, std::size_t{65}}) {
    std::string seq(len, 'A');
    for (std::size_t i = 0; i < len; ++i) seq[i] = "ACGT"[i % 4];
    expect_levels_agree(seq, std::string(len, 'F'));
    if (len == 0) continue;
    // All-special read.
    expect_levels_agree(std::string(len, 'N'), std::string(len, 'F'));
    // Specials pinned to the first, last and stride-boundary positions.
    std::string edges = seq;
    edges[0] = 'N';
    edges[len - 1] = 'X';
    if (len > 8) edges[8] = 'N';
    if (len > 32) edges[32] = 'N';
    expect_levels_agree(edges, std::string(len, 'F'));
  }
}

TEST(SeqCodecSimd, TruncatedPackedThrowsAtEveryLevel) {
  CompressedSequence bad;
  bad.length = 10;
  bad.packed = {0x00};  // needs ceil(10/4) == 3 bytes
  std::string qual(10, 'I');
  EXPECT_THROW(decompress_sequence(bad, qual), std::out_of_range);
  EXPECT_THROW(detail::decompress_sequence_reference(bad, qual),
               std::out_of_range);
}

TEST(QualCodecSimd, MultiSymbolDecodeMatchesScalar) {
  Rng rng(139);
  std::vector<std::string> quals;
  for (int i = 0; i < 64; ++i) {
    const std::size_t len = rng.below(200);
    std::string q(len, 'I');
    int cur = 'I';
    for (auto& c : q) {
      cur += static_cast<int>(rng.below(5)) - 2;
      cur = std::max('#' + 0, std::min('J' + 0, cur));
      c = static_cast<char>(cur);
    }
    quals.push_back(std::move(q));
  }
  quals.emplace_back();  // empty record: EOF is the first symbol
  const QualityCodec codec = QualityCodec::train(quals);
  BitWriter w;
  for (const auto& q : quals) codec.encode(q, w);
  const auto bytes = w.finish();

  BitReader scalar_in(std::span(bytes.data(), bytes.size()));
  BitReader multi_in(std::span(bytes.data(), bytes.size()));
  for (const auto& q : quals) {
    const std::string scalar = codec.decode_reference(scalar_in);
    const std::string multi = codec.decode(multi_in);
    ASSERT_EQ(scalar, q);
    ASSERT_EQ(multi, q);
  }
}

TEST(QualCodecSimd, LongCodeMidRecordAndBeforeEof) {
  // Training on tight +-2 walks leaves every other delta at the floor
  // frequency, so a jump of +30 codes longer than the decode table window.
  Rng rng(141);
  std::vector<std::string> training;
  for (int i = 0; i < 256; ++i) {
    std::string q(100, 'I');
    int cur = 'I';
    for (auto& c : q) {
      cur = std::clamp(cur + static_cast<int>(rng.below(5)) - 2, '#' + 0,
                       'J' + 0);
      c = static_cast<char>(cur);
    }
    training.push_back(std::move(q));
  }
  const QualityCodec codec = QualityCodec::train(training);
  const std::uint32_t jump = 30 + 128;  // symbol of delta +30
  ASSERT_GT(codec.serialize_table()[jump], HuffmanCoder::kTableBits);

  const std::string peak(1, static_cast<char>('I' + 30));
  const std::vector<std::string> records = {
      "IIIIIIII" + peak + "IIIIIIIIIIII",  // long codes mid-record
      "IIIIIIII" + peak,  // the stream's last symbol before EOF
  };
  BitWriter w;
  for (const auto& q : records) codec.encode(q, w);
  const auto bytes = w.finish();
  BitReader fast_in(std::span(bytes.data(), bytes.size()));
  BitReader ref_in(std::span(bytes.data(), bytes.size()));
  for (const auto& q : records) {
    EXPECT_EQ(codec.decode(fast_in), q);
    EXPECT_EQ(codec.decode_reference(ref_in), q);
  }
  EXPECT_EQ(fast_in.bits_left(), ref_in.bits_left());
}

TEST(HuffmanMulti, MultiEntriesConsistentWithSingleDecode) {
  // Every multi-table entry must re-trace to the same symbols the
  // single-symbol table yields for that window.
  std::vector<std::uint64_t> freq(kQualityAlphabet, 1);
  freq[128] = 1000;  // skewed: delta 0 dominates, like real quality data
  freq[127] = 300;
  freq[129] = 300;
  const HuffmanCoder coder = HuffmanCoder::from_frequencies(freq);
  for (std::uint32_t w = 0; w < (1u << HuffmanCoder::kTableBits); w += 37) {
    const HuffmanCoder::MultiEntry& e = coder.multi_entry(w);
    std::uint8_t used = 0;
    for (int k = 0; k < e.count; ++k) {
      ASSERT_GT(e.bit_ends[k], used);
      used = e.bit_ends[k];
      ASSERT_LE(used, HuffmanCoder::kTableBits);
    }
  }
}

}  // namespace
}  // namespace gpf
