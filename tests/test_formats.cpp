// Unit tests for src/formats: CIGAR, FASTA, FASTQ, SAM, VCF.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "formats/cigar.hpp"
#include "formats/fasta.hpp"
#include "formats/bed.hpp"
#include "formats/fastq.hpp"
#include "formats/sam.hpp"
#include "formats/scan.hpp"
#include "formats/vcf.hpp"

namespace gpf {
namespace {

/// The std::invalid_argument message `fn` throws, or "" if it doesn't.
template <typename Fn>
std::string capture_error(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

struct MalformedCase {
  const char* label;
  const char* text;
  const char* message;
};

// --- CIGAR -------------------------------------------------------------

TEST(Cigar, ParseAndToString) {
  const Cigar c = parse_cigar("76M2I20M5S");
  ASSERT_EQ(c.size(), 4u);
  EXPECT_EQ(c[0].op, CigarOp::kMatch);
  EXPECT_EQ(c[0].length, 76u);
  EXPECT_EQ(c[1].op, CigarOp::kInsertion);
  EXPECT_EQ(cigar_to_string(c), "76M2I20M5S");
}

TEST(Cigar, StarIsEmpty) {
  EXPECT_TRUE(parse_cigar("*").empty());
  EXPECT_EQ(cigar_to_string({}), "*");
}

TEST(Cigar, Lengths) {
  const Cigar c = parse_cigar("10S50M3D40M2I5H");
  EXPECT_EQ(cigar_read_length(c), 10u + 50 + 40 + 2);
  EXPECT_EQ(cigar_reference_length(c), 50u + 3 + 40);
}

TEST(Cigar, RejectsMalformed) {
  EXPECT_THROW(parse_cigar("M10"), std::invalid_argument);
  EXPECT_THROW(parse_cigar("10"), std::invalid_argument);
  EXPECT_THROW(parse_cigar("10Q"), std::invalid_argument);
  EXPECT_THROW(parse_cigar("0M"), std::invalid_argument);
}

TEST(Cigar, RoundTripProperty) {
  Rng rng(23);
  const CigarOp ops[] = {CigarOp::kMatch, CigarOp::kInsertion,
                         CigarOp::kDeletion, CigarOp::kSoftClip,
                         CigarOp::kSkip};
  for (int trial = 0; trial < 100; ++trial) {
    Cigar c;
    const int n = 1 + static_cast<int>(rng.below(8));
    CigarOp prev = CigarOp::kPad;
    for (int i = 0; i < n; ++i) {
      CigarOp op;
      do {
        op = ops[rng.below(5)];
      } while (op == prev);  // adjacent same-op runs merge in text form
      prev = op;
      c.push_back({op, static_cast<std::uint32_t>(1 + rng.below(200))});
    }
    EXPECT_EQ(parse_cigar(cigar_to_string(c)), c);
  }
}

// --- FASTA -------------------------------------------------------------

TEST(Fasta, ParseBasic) {
  const Reference ref = parse_fasta(">chr1 description\nACGT\nacgt\n>chr2\nNNRY\n");
  ASSERT_EQ(ref.contig_count(), 2u);
  EXPECT_EQ(ref.contig(0).name, "chr1");
  EXPECT_EQ(ref.contig(0).sequence, "ACGTACGT");
  // Ambiguity codes become N.
  EXPECT_EQ(ref.contig(1).sequence, "NNNN");
  EXPECT_EQ(ref.total_length(), 12u);
}

TEST(Fasta, FindContig) {
  const Reference ref = parse_fasta(">a\nAC\n>b\nGT\n");
  EXPECT_EQ(ref.find_contig("b").value(), 1);
  EXPECT_FALSE(ref.find_contig("c").has_value());
}

TEST(Fasta, SliceClampsBounds) {
  const Reference ref = parse_fasta(">a\nACGTACGT\n");
  EXPECT_EQ(ref.slice(0, 2, 3), "GTA");
  EXPECT_EQ(ref.slice(0, -2, 4), "AC");    // clipped at the left edge
  EXPECT_EQ(ref.slice(0, 6, 100), "GT");   // clipped at the right edge
  EXPECT_EQ(ref.slice(0, 100, 5), "");     // fully out of range
}

TEST(Fasta, WriteParseRoundTrip) {
  const Reference ref = parse_fasta(">chrA\n" + std::string(200, 'A') + "\n");
  const Reference again = parse_fasta(write_fasta(ref));
  EXPECT_EQ(again.contig(0).sequence, ref.contig(0).sequence);
}

TEST(Fasta, SequenceBeforeHeaderThrows) {
  EXPECT_THROW(parse_fasta("ACGT\n"), std::invalid_argument);
}

TEST(ReverseComplement, Basic) {
  EXPECT_EQ(reverse_complement("ACGTN"), "NACGT");
  EXPECT_EQ(reverse_complement(""), "");
  EXPECT_EQ(reverse_complement(reverse_complement("GATTACA")), "GATTACA");
  // Every byte value: A<->T, C<->G, anything else (lower case included)
  // becomes N.
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    char want = 'N';
    if (c == 'A') want = 'T';
    if (c == 'T') want = 'A';
    if (c == 'C') want = 'G';
    if (c == 'G') want = 'C';
    EXPECT_EQ(reverse_complement(std::string_view(&c, 1)),
              std::string(1, want))
        << "byte " << b;
  }
  // Order reverses across a mixed string.
  EXPECT_EQ(reverse_complement(std::string("AC\0g", 4)), "NNGT");
}

// --- FASTQ -------------------------------------------------------------

TEST(Fastq, ParseAndWrite) {
  const std::string text = "@read1\nACGT\n+\nIIII\n@read2\nTT\n+\nAB\n";
  const auto records = parse_fastq(text);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "read1");
  EXPECT_EQ(records[0].sequence, "ACGT");
  EXPECT_EQ(records[0].quality, "IIII");
  EXPECT_EQ(write_fastq(records), text);
}

TEST(Fastq, LengthMismatchThrows) {
  EXPECT_THROW(parse_fastq("@r\nACGT\n+\nII\n"), std::invalid_argument);
}

TEST(Fastq, MissingSeparatorThrows) {
  EXPECT_THROW(parse_fastq("@r\nACGT\nIIII\nACGT\n"), std::invalid_argument);
}

TEST(Fastq, ZipPairs) {
  auto pairs = zip_pairs({{"a/1", "AC", "II"}}, {{"a/2", "GT", "II"}});
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].first.name, "a/1");
  EXPECT_EQ(pairs[0].second.name, "a/2");
  EXPECT_THROW(zip_pairs({{"a", "A", "I"}}, {}), std::invalid_argument);
}

TEST(Fastq, MalformedCorpusBothPathsAgree) {
  static constexpr MalformedCase kCases[] = {
      {"truncated record", "@r\nACGT\n+\n", "FASTQ: truncated record"},
      {"truncated, no newline", "@r\nACGT", "FASTQ: truncated record"},
      {"header without @", "r1\nACGT\n+\nIIII\n", "FASTQ: expected '@' header"},
      {"missing separator", "@r\nACGT\nIIII\nACGT\n",
       "FASTQ: expected '+' separator"},
      {"separator repeats wrong name", "@r\nAC\n+x\nII\n",
       "FASTQ: '+' line repeats a different header"},
      {"length mismatch", "@r\nACGT\n+\nII\n",
       "FASTQ: sequence/quality length mismatch"},
      {"blank line between records", "@a\nA\n+\nI\n\n@b\nC\n+\nI\n",
       "FASTQ: blank line between records"},
      {"blank line then trailing garbage", "@a\nA\n+\nI\n\n\nC\n",
       "FASTQ: blank line between records"},
      {"blank seq with separator shifted", "@a\nA\n\nI\n",
       "FASTQ: expected '+' separator"},
      {"CR-only line endings", "@a\rAC\r+\rII", "FASTQ: truncated record"},
      {"non-ASCII header", "@a\x01\nAC\n+\nII\n",
       "FASTQ: non-ASCII byte in header"},
      {"non-ASCII sequence", "@a\nA\x80\n+\nII\n",
       "FASTQ: non-ASCII byte in sequence"},
      {"quality below Phred+33", "@a\nAC\n+\nI \n",
       "FASTQ: quality character out of range"},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(capture_error([&] { parse_fastq(c.text); }), c.message)
        << c.label;
    EXPECT_EQ(capture_error([&] { detail::parse_fastq_reference(c.text); }),
              c.message)
        << c.label << " (reference)";
    EXPECT_EQ(capture_error([&] { scan_fastq(c.text); }), c.message)
        << c.label << " (scan)";
  }
}

TEST(Fastq, AcceptsBenignShapeVariants) {
  // CRLF endings.
  const auto crlf = parse_fastq("@a x\r\nAC\r\n+\r\nII\r\n");
  ASSERT_EQ(crlf.size(), 1u);
  EXPECT_EQ(crlf[0].name, "a x");
  EXPECT_EQ(crlf[0].sequence, "AC");
  // Missing final newline.
  EXPECT_EQ(parse_fastq("@a\nAC\n+\nII").size(), 1u);
  // Trailing blank lines.
  EXPECT_EQ(parse_fastq("@a\nAC\n+\nII\n\n\n").size(), 1u);
  // '+' line repeating the full header.
  EXPECT_EQ(parse_fastq("@a desc\nAC\n+a desc\nII\n").size(), 1u);
  // Zero-length read (write_fastq emits this for empty sequences).
  const auto empty = parse_fastq("@e\n\n+\n\n");
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_EQ(empty[0].sequence, "");
  // Empty input.
  EXPECT_TRUE(parse_fastq("").empty());
  EXPECT_TRUE(parse_fastq("\n\n").empty());
}

TEST(Fastq, ScanStatsMatchParse) {
  const std::string text = "@a\nACGT\n+\nIIII\n@b\nAC\n+\nII\n";
  const FastqScanStats stats = scan_fastq(text);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.bases, 6u);
  EXPECT_EQ(stats, detail::scan_fastq_reference(text));
}

TEST(Fastq, ParallelDriverMatchesReferenceOnLargeInput) {
  // Big enough to split into several chunks inside LineIndex (min chunk
  // 256 KiB) and long enough lines to cross 64-byte blocks.
  Rng rng(4242);
  std::vector<FastqRecord> records;
  for (int i = 0; i < 4000; ++i) {
    const std::size_t len = 40 + rng.below(200);
    std::string seq(len, 'A');
    for (auto& c : seq) c = "ACGT"[rng.below(4)];
    records.push_back({"read" + std::to_string(i), seq,
                       std::string(len,
                                   static_cast<char>('!' + rng.below(70)))});
  }
  const std::string text = write_fastq(records);
  ASSERT_GT(text.size(), std::size_t{1} << 19);
  // Forced-parallel parse (threshold 1) agrees with the reference...
  const auto fast =
      detail::parse_fastq_at(simd::active_level(), text, /*threshold=*/1);
  EXPECT_EQ(fast, records);
  EXPECT_EQ(detail::parse_fastq_reference(text), records);
  // ...including when the input ends with an error past many chunks.
  std::string bad = text + "@tail\nACGT\n+\nII\n";
  EXPECT_EQ(capture_error([&] {
              detail::parse_fastq_at(simd::active_level(), bad, 1);
            }),
            "FASTQ: sequence/quality length mismatch");
}

TEST(ScanLayer, LineIndexParallelMatchesSequential) {
  Rng rng(99);
  std::string text;
  while (text.size() < (std::size_t{1} << 20) + 12345) {
    text.append(std::string(rng.below(150), 'x'));
    if (rng.below(6) != 0) text.push_back('\n');
    else text.append("\r\n");
  }
  const simd::Level level = simd::active_level();
  const fmt::LineIndex seq(level, text, /*parallel_threshold=*/text.size() + 1);
  const fmt::LineIndex par(level, text, /*parallel_threshold=*/1);
  ASSERT_EQ(seq.line_count(), par.line_count());
  for (std::size_t i = 0; i < seq.line_count(); ++i) {
    ASSERT_EQ(seq.line(i), par.line(i)) << i;
    ASSERT_EQ(seq.line_start(i), par.line_start(i)) << i;
  }
}

TEST(ScanLayer, RejectsOversizedInput) {
  // A fake string_view over a null pointer with a 4GiB+1 size never gets
  // dereferenced: the size gate throws first.
  const std::string_view huge(static_cast<const char*>(nullptr),
                              fmt::kMaxTextBytes + 1);
  EXPECT_THROW(fmt::LineIndex(simd::Level::kScalar, huge),
               std::invalid_argument);
}

// --- SAM ---------------------------------------------------------------

SamHeader two_contig_header() {
  SamHeader h;
  h.contigs = {{"chr1", 1000}, {"chr2", 500}};
  return h;
}

TEST(Sam, WriteParseRoundTrip) {
  SamHeader header = two_contig_header();
  SamRecord rec;
  rec.qname = "r1";
  rec.flag = SamFlags::kPaired | SamFlags::kFirstOfPair | SamFlags::kReverse;
  rec.contig_id = 1;
  rec.pos = 99;
  rec.mapq = 60;
  rec.cigar = parse_cigar("5M");
  rec.mate_contig_id = 1;
  rec.mate_pos = 200;
  rec.tlen = 106;
  rec.sequence = "ACGTA";
  rec.quality = "IIIII";

  const std::string text = write_sam(header, {rec});
  const SamFile parsed = parse_sam(text);
  EXPECT_EQ(parsed.header, header);
  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_EQ(parsed.records[0], rec);
}

TEST(Sam, UnmappedRoundTrip) {
  SamRecord rec;
  rec.qname = "u";
  rec.flag = SamFlags::kUnmapped;
  rec.sequence = "AC";
  rec.quality = "II";
  const SamFile parsed = parse_sam(write_sam(two_contig_header(), {rec}));
  EXPECT_EQ(parsed.records[0].contig_id, -1);
  EXPECT_TRUE(parsed.records[0].is_unmapped());
}

TEST(Sam, CoordinateLessOrdersProperly) {
  SamRecord a, b, unmapped;
  a.contig_id = 0;
  a.pos = 10;
  b.contig_id = 0;
  b.pos = 20;
  unmapped.flag = SamFlags::kUnmapped;
  EXPECT_TRUE(coordinate_less(a, b));
  EXPECT_FALSE(coordinate_less(b, a));
  EXPECT_TRUE(coordinate_less(b, unmapped));
  EXPECT_FALSE(coordinate_less(unmapped, a));
}

TEST(Sam, UnclippedStartForward) {
  SamRecord rec;
  rec.contig_id = 0;
  rec.pos = 100;
  rec.cigar = parse_cigar("5S90M5S");
  EXPECT_EQ(rec.unclipped_start(), 95);
}

TEST(Sam, UnclippedStartReverse) {
  SamRecord rec;
  rec.contig_id = 0;
  rec.pos = 100;
  rec.flag = SamFlags::kReverse;
  rec.cigar = parse_cigar("90M10S");
  // end_pos = 190; plus trailing clip 10 -> unclipped end at 199.
  EXPECT_EQ(rec.unclipped_start(), 199);
}

TEST(Sam, EndPos) {
  SamRecord rec;
  rec.pos = 10;
  rec.cigar = parse_cigar("10M5D10M");
  EXPECT_EQ(rec.end_pos(), 35);
}

TEST(Sam, MalformedCorpusBothPathsAgree) {
  const std::string header = "@SQ\tSN:chr1\tLN:1000\n";
  static constexpr MalformedCase kCases[] = {
      {"short record", "r\t0\t*\t0\t0\t*\t*\t0\t0\tAC\n",
       "SAM: record with <11 fields"},
      {"bad flag", "r\tx\t*\t1\t0\t*\t*\t0\t0\tAC\tII\n",
       "SAM: bad integer field: x"},
      {"unknown contig", "r\t0\tchrX\t1\t0\t*\t*\t0\t0\tAC\tII\n",
       "SAM: unknown contig chrX"},
      {"bad cigar", "r\t0\tchr1\t1\t0\tx\t*\t0\t0\tAC\tII\n",
       "CIGAR op without length"},
      {"non-ASCII qname", "r\x80\t0\t*\t1\t0\t*\t*\t0\t0\tAC\tII\n",
       "SAM: non-ASCII byte in QNAME"},
      {"non-ASCII sequence", "r\t0\t*\t1\t0\t*\t*\t0\t0\tA\x02\tII\n",
       "SAM: non-ASCII byte in SEQ"},
      {"non-ASCII quality", "r\t0\t*\t1\t0\t*\t*\t0\t0\tAC\tI\x9f\n",
       "SAM: non-ASCII byte in QUAL"},
      {"bad @SQ length", "@SQ\tSN:chr1\tLN:12x\n",
       "SAM: bad integer field: 12x"},
      {"CIGAR longer than SEQ",
       "r\t0\tchr1\t1\t0\t100M\t*\t0\t0\tACGTA\tIIIII\n",
       "SAM: CIGAR covers 100 query bases but SEQ has 5 and QUAL 5"},
      {"CIGAR shorter than SEQ",
       "r\t0\tchr1\t1\t0\t2M1D2S\t*\t0\t0\tACGTA\tIIIII\n",
       "SAM: CIGAR covers 4 query bases but SEQ has 5 and QUAL 5"},
      {"CIGAR lengths wrap 32 bits",
       "r\t0\tchr1\t1\t0\t4294967295M6M\t*\t0\t0\tACGTA\tIIIII\n",
       "SAM: CIGAR covers 4294967301 query bases but SEQ has 5 and QUAL 5"},
      {"CIGAR without SEQ", "r\t0\tchr1\t1\t0\t2M\t*\t0\t0\t*\t*\n",
       "SAM: CIGAR covers 2 query bases but SEQ has 0 and QUAL 0"},
      {"CIGAR without QUAL", "r\t0\tchr1\t1\t0\t2M\t*\t0\t0\tAC\t*\n",
       "SAM: CIGAR covers 2 query bases but SEQ has 2 and QUAL 0"},
      {"QUAL longer than SEQ", "r\t4\t*\t0\t0\t*\t*\t0\t0\tAC\tIII\n",
       "SAM: QUAL length 3 differs from SEQ length 2"},
      {"QUAL without SEQ", "r\t4\t*\t0\t0\t*\t*\t0\t0\t*\tII\n",
       "SAM: QUAL length 2 differs from SEQ length 0"},
  };
  for (const auto& c : kCases) {
    const std::string text = header + c.text;
    EXPECT_EQ(capture_error([&] { parse_sam(text); }), c.message) << c.label;
    EXPECT_EQ(capture_error([&] { detail::parse_sam_reference(text); }),
              c.message)
        << c.label << " (reference)";
  }
}

TEST(Sam, AcceptsBenignShapeVariants) {
  // CRLF, blank interior lines, and a missing final newline are all fine.
  const std::string text =
      "@SQ\tSN:chr1\tLN:1000\r\n\r\n"
      "r1\t0\tchr1\t10\t60\t2M\t*\t0\t0\tAC\tII\n\n"
      "r2\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*";
  const SamFile parsed = parse_sam(text);
  ASSERT_EQ(parsed.records.size(), 2u);
  EXPECT_EQ(parsed.records[0].qname, "r1");
  EXPECT_EQ(parsed.records[0].pos, 9);
  EXPECT_EQ(parsed.records[1].contig_id, -1);
  EXPECT_EQ(parsed, detail::parse_sam_reference(text));
}

TEST(Sam, LateHeaderLineFallsBackToReferenceSemantics) {
  // An @SQ line *after* a record changes which contigs later records can
  // resolve; the fast path must defer to the sequential reference.
  const std::string text =
      "@SQ\tSN:chr1\tLN:1000\n"
      "r1\t0\tchr1\t10\t60\t2M\t*\t0\t0\tAC\tII\n"
      "@SQ\tSN:chr2\tLN:500\n"
      "r2\t0\tchr2\t20\t60\t2M\t*\t0\t0\tGG\tII\n";
  const SamFile parsed = parse_sam(text);
  ASSERT_EQ(parsed.records.size(), 2u);
  EXPECT_EQ(parsed.records[1].contig_id, 1);
  EXPECT_EQ(parsed, detail::parse_sam_reference(text));
}

// --- VCF ---------------------------------------------------------------

TEST(Vcf, WriteParseRoundTrip) {
  VcfHeader header;
  header.contigs = {{"chr1", 1000}};
  header.sample_name = "NA12878";
  VcfRecord v;
  v.contig_id = 0;
  v.pos = 41;
  v.ref = "A";
  v.alt = "ACGT";
  v.qual = 55.25;
  v.genotype = Genotype::kHet;

  const VcfFile parsed = parse_vcf(write_vcf(header, {v}));
  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_EQ(parsed.records[0].pos, 41);
  EXPECT_EQ(parsed.records[0].ref, "A");
  EXPECT_EQ(parsed.records[0].alt, "ACGT");
  EXPECT_NEAR(parsed.records[0].qual, 55.25, 0.01);
  EXPECT_EQ(parsed.records[0].genotype, Genotype::kHet);
  EXPECT_EQ(parsed.header.sample_name, "NA12878");
}

TEST(Vcf, VariantClassification) {
  VcfRecord snp{0, 1, ".", "A", "C", 0, Genotype::kHet};
  VcfRecord ins{0, 1, ".", "A", "ACC", 0, Genotype::kHet};
  VcfRecord del{0, 1, ".", "ACC", "A", 0, Genotype::kHet};
  EXPECT_TRUE(snp.is_snp());
  EXPECT_TRUE(ins.is_insertion());
  EXPECT_TRUE(del.is_deletion());
}

TEST(Vcf, MultiAllelicRejected) {
  VcfHeader header;
  header.contigs = {{"chr1", 1000}};
  const std::string text =
      "##contig=<ID=chr1,length=1000>\n"
      "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\n"
      "chr1\t5\t.\tA\tC,G\t10\tPASS\t.\n";
  EXPECT_THROW(parse_vcf(text), std::invalid_argument);
}

TEST(Vcf, SortOrder) {
  VcfRecord a{0, 5, ".", "A", "C", 0, Genotype::kHet};
  VcfRecord b{0, 5, ".", "A", "G", 0, Genotype::kHet};
  VcfRecord c{1, 1, ".", "A", "C", 0, Genotype::kHet};
  EXPECT_TRUE(vcf_less(a, b));
  EXPECT_TRUE(vcf_less(b, c));
}

TEST(Vcf, MalformedCorpusBothPathsAgree) {
  static constexpr MalformedCase kCases[] = {
      {"short record", "c1\t5\t.\tA\n", "VCF: short record"},
      {"bad POS", "c1\tx5\t.\tA\tC\t10\tPASS\t.\n", "VCF: bad POS"},
      {"bad QUAL", "c1\t5\t.\tA\tC\tq\tPASS\t.\n", "VCF: bad QUAL"},
      {"multi-allelic", "c1\t5\t.\tA\tC,G\t10\tPASS\t.\n",
       "VCF: multi-allelic sites unsupported"},
      {"non-ASCII REF", "c1\t5\t.\tA\x7f\tC\t10\tPASS\t.\n",
       "VCF: non-ASCII byte in REF"},
      {"non-ASCII ALT", "c1\t5\t.\tA\tC\x04\t10\tPASS\t.\n",
       "VCF: non-ASCII byte in ALT"},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(capture_error([&] { parse_vcf(c.text); }), c.message) << c.label;
    EXPECT_EQ(capture_error([&] { detail::parse_vcf_reference(c.text); }),
              c.message)
        << c.label << " (reference)";
  }
}

TEST(Vcf, AcceptsBenignShapeVariants) {
  // "." QUAL, CRLF, blank lines, missing final newline, and contigs
  // synthesized in order of appearance.
  const std::string text =
      "##fileformat=VCFv4.2\r\n\r\n"
      "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\r\n"
      "b\t5\t.\tA\tC\t.\tPASS\t.\n"
      "a\t7\t.\tG\tT\t12.5\tPASS\t.";
  const VcfFile parsed = parse_vcf(text);
  ASSERT_EQ(parsed.records.size(), 2u);
  EXPECT_EQ(parsed.header.contigs[0].name, "b");
  EXPECT_EQ(parsed.header.contigs[1].name, "a");
  EXPECT_EQ(parsed.records[0].contig_id, 0);
  EXPECT_EQ(parsed.records[0].qual, 0.0);
  EXPECT_EQ(parsed.records[1].contig_id, 1);
  EXPECT_NEAR(parsed.records[1].qual, 12.5, 1e-9);
  EXPECT_EQ(parsed, detail::parse_vcf_reference(text));
}

TEST(Vcf, LateMetaLineFallsBackToReferenceSemantics) {
  const std::string text =
      "##contig=<ID=c1,length=100>\n"
      "c1\t5\t.\tA\tC\t10\tPASS\t.\n"
      "##contig=<ID=c2,length=200>\n"
      "c2\t7\t.\tG\tT\t10\tPASS\t.\n";
  const VcfFile parsed = parse_vcf(text);
  ASSERT_EQ(parsed.records.size(), 2u);
  EXPECT_EQ(parsed.records[1].contig_id, 1);
  EXPECT_EQ(parsed, detail::parse_vcf_reference(text));
}


// --- BED ----------------------------------------------------------------

TEST(Bed, ParseAndWrite) {
  const SamHeader header = two_contig_header();
  const std::string text =
      "# comment\ntrack name=x\nchr1\t10\t50\texon1\nchr2\t0\t100\n";
  const auto intervals = parse_bed(text, header);
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_EQ(intervals[0].contig_id, 0);
  EXPECT_EQ(intervals[0].start, 10);
  EXPECT_EQ(intervals[0].end, 50);
  EXPECT_EQ(intervals[0].name, "exon1");
  const std::string round = write_bed(intervals, header);
  EXPECT_EQ(parse_bed(round, header), intervals);
}

TEST(Bed, UnknownContigThrows) {
  EXPECT_THROW(parse_bed("chrX\t0\t10\n", two_contig_header()),
               std::invalid_argument);
}

TEST(Bed, ShortLineThrows) {
  EXPECT_THROW(parse_bed("chr1\t0\n", two_contig_header()),
               std::invalid_argument);
}

TEST(IntervalSet, MergesOverlapsAndSorts) {
  IntervalSet set(std::vector<BedInterval>{{0, 50, 80, ""},
                                           {0, 10, 30, ""},
                                           {0, 25, 55, ""},
                                           {1, 5, 10, ""}});
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.intervals()[0].start, 10);
  EXPECT_EQ(set.intervals()[0].end, 80);
  EXPECT_EQ(set.total_length(), 70 + 5);
}

TEST(IntervalSet, OverlapQueries) {
  IntervalSet set(std::vector<BedInterval>{{0, 100, 200, ""},
                                           {0, 300, 400, ""},
                                           {2, 0, 50, ""}});
  EXPECT_TRUE(set.overlaps(0, 150, 160));
  EXPECT_TRUE(set.overlaps(0, 90, 101));   // touches the left edge
  EXPECT_FALSE(set.overlaps(0, 200, 300));  // gap between intervals
  EXPECT_TRUE(set.overlaps(0, 199, 305));   // spans the gap
  EXPECT_FALSE(set.overlaps(1, 0, 1000));   // wrong contig
  EXPECT_TRUE(set.contains(2, 0));
  EXPECT_FALSE(set.contains(2, 50));        // end is exclusive
  EXPECT_FALSE(set.overlaps(0, 150, 150));  // empty query
}

TEST(IntervalSet, EmptyAndInvertedIntervalsDropped) {
  IntervalSet set(std::vector<BedInterval>{{0, 10, 10, ""},
                                           {0, 20, 15, ""}});
  EXPECT_TRUE(set.empty());
}

}  // namespace
}  // namespace gpf
