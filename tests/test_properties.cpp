// Cross-module property sweeps: parameterized randomized tests asserting
// structural invariants that must hold for every seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "align/fm_index.hpp"
#include "align/suffix_array.hpp"
#include "common/rng.hpp"
#include "compress/record_codec.hpp"
#include "core/partition_info.hpp"
#include "formats/bed.hpp"
#include "formats/cigar.hpp"
#include "formats/fasta.hpp"
#include "formats/fastq.hpp"
#include "formats/sam.hpp"
#include "formats/vcf.hpp"
#include "simcluster/cluster.hpp"
#include "simcluster/sharedfs.hpp"
#include "simdata/reference_gen.hpp"

namespace gpf {
namespace {

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

// --- PartitionInfo: random geometry + random splits -------------------------

TEST_P(SeedSweep, PartitionInfoTilesAndRoutesConsistently) {
  Rng rng(GetParam());
  // Random contig dictionary.
  std::vector<SamHeader::ContigInfo> contigs;
  const int n_contigs = 1 + static_cast<int>(rng.below(5));
  for (int c = 0; c < n_contigs; ++c) {
    contigs.push_back({"c" + std::to_string(c),
                       static_cast<std::int64_t>(500 + rng.below(20'000))});
  }
  const std::int64_t part_len = 100 + static_cast<std::int64_t>(
                                          rng.below(3'000));
  core::PartitionInfo info(contigs, part_len);

  // Random read-count vector and threshold.
  std::vector<std::uint64_t> counts(info.base_partition_count());
  for (auto& c : counts) c = rng.below(5'000);
  const std::uint64_t threshold = 1 + rng.below(1'000);
  info.apply_split(counts, threshold);

  // Invariant 1: regions tile every contig exactly.
  std::vector<std::int64_t> covered(contigs.size(), 0);
  std::int32_t last_contig = -1;
  std::int64_t last_end = 0;
  for (std::uint32_t p = 0; p < info.partition_count(); ++p) {
    const auto region = info.region_of(p);
    if (region.contig_id != last_contig) {
      if (last_contig >= 0) {
        ASSERT_EQ(last_end, contigs[last_contig].length);
      }
      ASSERT_EQ(region.start, 0);
      last_contig = region.contig_id;
    } else {
      ASSERT_EQ(region.start, last_end);
    }
    ASSERT_LT(region.start, region.end);
    covered[region.contig_id] += region.end - region.start;
    last_end = region.end;
  }
  ASSERT_EQ(last_end, contigs.back().length);
  for (std::size_t c = 0; c < contigs.size(); ++c) {
    ASSERT_EQ(covered[c], contigs[c].length);
  }

  // Invariant 2: partition_of(pos) names a region containing pos.
  for (int trial = 0; trial < 200; ++trial) {
    const auto cid = static_cast<std::int32_t>(rng.below(contigs.size()));
    const auto pos = static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(contigs[cid].length)));
    const std::uint32_t p = info.partition_of(cid, pos);
    const auto region = info.region_of(p);
    ASSERT_EQ(region.contig_id, cid);
    ASSERT_GE(pos, region.start);
    ASSERT_LT(pos, region.end);
  }

  // Invariant 3: split table start ids are dense and ordered.
  std::uint32_t expected_start = 0;
  for (const auto& entry : info.split_table()) {
    ASSERT_EQ(entry.start_id, expected_start);
    expected_start += entry.split_count;
  }
  ASSERT_EQ(expected_start, info.partition_count());
}

// --- record codecs: randomized round trips ----------------------------------

FastqRecord random_fastq(Rng& rng) {
  const char bases[] = {'A', 'C', 'G', 'T', 'N'};
  FastqRecord r;
  const std::size_t name_len = rng.below(40);
  for (std::size_t i = 0; i < name_len; ++i) {
    r.name.push_back(static_cast<char>('!' + rng.below(90)));
  }
  const std::size_t len = rng.below(250);  // includes empty reads
  r.sequence.resize(len);
  r.quality.resize(len);
  for (std::size_t i = 0; i < len; ++i) {
    r.sequence[i] = bases[rng.below(8) == 0 ? 4 : rng.below(4)];
    r.quality[i] = static_cast<char>(33 + rng.below(94));
  }
  return r;
}

TEST_P(SeedSweep, FastqCodecsRoundTripArbitraryRecords) {
  Rng rng(GetParam() * 7919);
  std::vector<FastqRecord> records;
  const std::size_t n = rng.below(60);
  for (std::size_t i = 0; i < n; ++i) records.push_back(random_fastq(rng));
  for (const Codec codec :
       {Codec::kJavaLike, Codec::kKryoLike, Codec::kGpf}) {
    const auto bytes = encode_fastq_batch(records, codec);
    ASSERT_EQ(decode_fastq_batch(bytes, codec), records)
        << codec_name(codec);
  }
}

TEST_P(SeedSweep, SamCodecsRoundTripArbitraryRecords) {
  Rng rng(GetParam() * 104729);
  std::vector<SamRecord> records;
  const std::size_t n = rng.below(50);
  for (std::size_t i = 0; i < n; ++i) {
    const FastqRecord base = random_fastq(rng);
    SamRecord r;
    r.qname = base.name;
    r.flag = static_cast<std::uint16_t>(rng.below(0x1000));
    r.contig_id = static_cast<std::int32_t>(rng.below(30)) - 1;
    r.pos = static_cast<std::int64_t>(rng.below(1'000'000)) - 1;
    r.mapq = static_cast<std::uint8_t>(rng.below(255));
    if (!base.sequence.empty()) {
      r.cigar = {{CigarOp::kSoftClip, 1},
                 {CigarOp::kMatch,
                  static_cast<std::uint32_t>(base.sequence.size())},
                 {CigarOp::kInsertion, static_cast<std::uint32_t>(
                                           1 + rng.below(9))}};
    }
    r.mate_contig_id = static_cast<std::int32_t>(rng.below(30)) - 1;
    r.mate_pos = static_cast<std::int64_t>(rng.below(1'000'000)) - 1;
    r.tlen = static_cast<std::int64_t>(rng.below(2'000)) - 1'000;
    r.sequence = base.sequence;
    r.quality = base.quality;
    records.push_back(std::move(r));
  }
  for (const Codec codec :
       {Codec::kJavaLike, Codec::kKryoLike, Codec::kGpf}) {
    const auto bytes = encode_sam_batch(records, codec);
    ASSERT_EQ(decode_sam_batch(bytes, codec), records) << codec_name(codec);
  }
}

// --- text formats: parse(write(x)) == x -------------------------------------

TEST_P(SeedSweep, FastqTextRoundTripsArbitraryRecords) {
  Rng rng(GetParam() * 131);
  std::vector<FastqRecord> records;
  const std::size_t n = rng.below(40);
  for (std::size_t i = 0; i < n; ++i) records.push_back(random_fastq(rng));
  const std::string text = write_fastq(records);
  ASSERT_EQ(parse_fastq(text), records);
  // The validation-only scan agrees with the parse.
  const FastqScanStats stats = scan_fastq(text);
  ASSERT_EQ(stats.records, records.size());
  std::size_t bases = 0;
  for (const auto& r : records) bases += r.sequence.size();
  ASSERT_EQ(stats.bases, bases);
}

TEST_P(SeedSweep, ZipPairsPreservesMatesAndRejectsRaggedInputs) {
  Rng rng(GetParam() * 137);
  std::vector<FastqRecord> first;
  std::vector<FastqRecord> second;
  const std::size_t n = 1 + rng.below(30);
  for (std::size_t i = 0; i < n; ++i) {
    first.push_back(random_fastq(rng));
    second.push_back(random_fastq(rng));
  }
  const auto pairs = zip_pairs(first, second);
  ASSERT_EQ(pairs.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(pairs[i].first, first[i]);
    ASSERT_EQ(pairs[i].second, second[i]);
  }
  second.pop_back();
  ASSERT_THROW(zip_pairs(first, second), std::invalid_argument);
}

TEST_P(SeedSweep, SamTextRoundTripsValidFiles) {
  Rng rng(GetParam() * 139);
  SamHeader header;
  const std::size_t n_contigs = 1 + rng.below(4);
  for (std::size_t c = 0; c < n_contigs; ++c) {
    header.contigs.push_back({"ctg" + std::to_string(c),
                              static_cast<std::int64_t>(
                                  1 + rng.below(50'000))});
  }
  header.coordinate_sorted = rng.below(2) == 0;
  static constexpr CigarOp kOps[] = {CigarOp::kMatch, CigarOp::kInsertion,
                                     CigarOp::kDeletion, CigarOp::kSoftClip};
  std::vector<SamRecord> records;
  const std::size_t n = rng.below(30);
  for (std::size_t i = 0; i < n; ++i) {
    SamRecord r;
    r.qname = "q" + std::to_string(rng.below(1'000'000));
    r.flag = static_cast<std::uint16_t>(rng.below(0x1000));
    r.contig_id = static_cast<std::int32_t>(rng.below(n_contigs + 1)) - 1;
    r.pos = static_cast<std::int64_t>(rng.below(100'000)) - 1;
    r.mapq = static_cast<std::uint8_t>(rng.below(255));
    const std::size_t ops = rng.below(4);
    CigarOp prev = CigarOp::kPad;
    for (std::size_t k = 0; k < ops; ++k) {
      CigarOp op;
      do {
        op = kOps[rng.below(4)];
      } while (op == prev);  // adjacent same-op runs merge in text form
      prev = op;
      r.cigar.push_back({op, static_cast<std::uint32_t>(1 + rng.below(90))});
    }
    r.mate_contig_id = static_cast<std::int32_t>(rng.below(n_contigs + 1)) - 1;
    r.mate_pos = static_cast<std::int64_t>(rng.below(100'000)) - 1;
    r.tlen = static_cast<std::int64_t>(rng.below(4'000)) - 2'000;
    // A CIGAR's query length is SEQ's length (the parser rejects any
    // other); a record without one draws its own.
    const std::size_t drawn = rng.below(60);
    const std::size_t len =
        r.cigar.empty() ? drawn : cigar_read_length(r.cigar);
    for (std::size_t k = 0; k < len; ++k) {
      r.sequence.push_back("ACGTN"[rng.below(5)]);
      r.quality.push_back(static_cast<char>(33 + rng.below(94)));
    }
    // A quality of exactly "*" is SAM's missing-quality marker and cannot
    // survive a text round trip.
    if (r.quality == "*") r.quality = "I";
    records.push_back(std::move(r));
  }
  const SamFile parsed = parse_sam(write_sam(header, records));
  ASSERT_EQ(parsed.header, header);
  ASSERT_EQ(parsed.records, records);
}

TEST_P(SeedSweep, VcfTextRoundTripsValidFiles) {
  Rng rng(GetParam() * 149);
  VcfHeader header;
  const std::size_t n_contigs = 1 + rng.below(4);
  for (std::size_t c = 0; c < n_contigs; ++c) {
    header.contigs.push_back({"ctg" + std::to_string(c),
                              static_cast<std::int64_t>(
                                  1 + rng.below(50'000))});
  }
  header.sample_name = "S" + std::to_string(rng.below(1000));
  std::vector<VcfRecord> records;
  const std::size_t n = rng.below(30);
  for (std::size_t i = 0; i < n; ++i) {
    VcfRecord v;
    v.contig_id = static_cast<std::int32_t>(rng.below(n_contigs));
    v.pos = static_cast<std::int64_t>(rng.below(100'000));
    v.id = rng.below(2) == 0 ? "." : "rs" + std::to_string(rng.below(100000));
    const std::size_t rlen = 1 + rng.below(5);
    const std::size_t alen = 1 + rng.below(5);
    for (std::size_t k = 0; k < rlen; ++k) {
      v.ref.push_back("ACGT"[rng.below(4)]);
    }
    for (std::size_t k = 0; k < alen; ++k) {
      v.alt.push_back("ACGT"[rng.below(4)]);
    }
    // Multiples of 1/4 are binary-exact, so "%.2f" text round-trips them.
    v.qual = static_cast<double>(rng.below(40'000)) / 4.0;
    v.genotype = static_cast<Genotype>(rng.below(3));
    records.push_back(std::move(v));
  }
  const VcfFile parsed = parse_vcf(write_vcf(header, records));
  ASSERT_EQ(parsed.header, header);
  ASSERT_EQ(parsed.records, records);
}

TEST_P(SeedSweep, FastaTextRoundTripsArbitraryContigs) {
  Rng rng(GetParam() * 151);
  std::vector<FastaContig> contigs;
  const std::size_t n = 1 + rng.below(5);
  for (std::size_t c = 0; c < n; ++c) {
    FastaContig contig;
    contig.name = "seq" + std::to_string(c);
    const std::size_t len = rng.below(400);
    for (std::size_t k = 0; k < len; ++k) {
      contig.sequence.push_back("ACGTN"[rng.below(5)]);
    }
    contigs.push_back(std::move(contig));
  }
  const Reference ref(std::move(contigs));
  const Reference parsed = parse_fasta(write_fasta(ref));
  ASSERT_EQ(parsed.contig_count(), ref.contig_count());
  for (std::size_t c = 0; c < ref.contig_count(); ++c) {
    ASSERT_EQ(parsed.contig(static_cast<std::int32_t>(c)).name,
              ref.contig(static_cast<std::int32_t>(c)).name);
    ASSERT_EQ(parsed.contig(static_cast<std::int32_t>(c)).sequence,
              ref.contig(static_cast<std::int32_t>(c)).sequence);
  }
}

TEST_P(SeedSweep, BedTextRoundTripsValidIntervals) {
  Rng rng(GetParam() * 157);
  SamHeader header;
  const std::size_t n_contigs = 1 + rng.below(4);
  for (std::size_t c = 0; c < n_contigs; ++c) {
    header.contigs.push_back({"ctg" + std::to_string(c),
                              static_cast<std::int64_t>(
                                  1 + rng.below(50'000))});
  }
  std::vector<BedInterval> intervals;
  const std::size_t n = rng.below(30);
  for (std::size_t i = 0; i < n; ++i) {
    BedInterval iv;
    iv.contig_id = static_cast<std::int32_t>(rng.below(n_contigs));
    iv.start = static_cast<std::int64_t>(rng.below(10'000));
    iv.end = iv.start + 1 + static_cast<std::int64_t>(rng.below(5'000));
    if (rng.below(2) == 0) iv.name = "iv" + std::to_string(i);
    intervals.push_back(std::move(iv));
  }
  ASSERT_EQ(parse_bed(write_bed(intervals, header), header), intervals);
}

TEST_P(SeedSweep, CigarTextRoundTrips) {
  Rng rng(GetParam() * 163);
  static constexpr CigarOp kOps[] = {CigarOp::kMatch, CigarOp::kInsertion,
                                     CigarOp::kDeletion, CigarOp::kSoftClip,
                                     CigarOp::kSkip, CigarOp::kHardClip};
  for (int trial = 0; trial < 50; ++trial) {
    Cigar c;
    const std::size_t ops = rng.below(10);
    CigarOp prev = CigarOp::kPad;
    for (std::size_t k = 0; k < ops; ++k) {
      CigarOp op;
      do {
        op = kOps[rng.below(6)];
      } while (op == prev);
      prev = op;
      c.push_back({op, static_cast<std::uint32_t>(1 + rng.below(500))});
    }
    ASSERT_EQ(parse_cigar(cigar_to_string(c)), c);
  }
}

// --- FM index: occurrence completeness --------------------------------------

TEST_P(SeedSweep, FmIndexFindsAllOccurrences) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(4'000, GetParam() * 31));
  const align::FmIndex index(ref);
  Rng rng(GetParam() * 37);
  const std::string& seq = ref.contig(0).sequence;

  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t len = 8 + rng.below(16);
    const std::size_t start = rng.below(seq.size() - len);
    const std::string pattern = seq.substr(start, len);
    if (pattern.find('N') != std::string::npos) continue;

    // Ground truth occurrence count by direct scan.
    std::size_t expected = 0;
    for (std::size_t i = 0; i + len <= seq.size(); ++i) {
      if (seq.compare(i, len, pattern) == 0) ++expected;
    }
    const align::SaInterval iv = index.search(pattern);
    ASSERT_EQ(iv.size(), expected) << pattern;
    // Every located hit is a real occurrence.
    for (std::uint32_t row = iv.lo; row < iv.hi; ++row) {
      const auto rp = index.locate(row);
      ASSERT_EQ(rp.contig_id, 0);
      ASSERT_EQ(seq.compare(static_cast<std::size_t>(rp.offset), len,
                            pattern),
                0);
    }
  }
}

// --- suffix array: sortedness on arbitrary byte strings ----------------------

TEST_P(SeedSweep, SuffixArrayIsSorted) {
  Rng rng(GetParam() * 41);
  const std::size_t n = 1 + rng.below(2'000);
  std::vector<std::uint8_t> text(n);
  for (auto& c : text) c = static_cast<std::uint8_t>(rng.below(5));
  const auto sa = align::build_suffix_array(text);
  ASSERT_EQ(sa.size(), n);
  // Permutation check.
  std::vector<bool> seen(n, false);
  for (const auto s : sa) {
    ASSERT_LT(s, n);
    ASSERT_FALSE(seen[s]);
    seen[s] = true;
  }
  // Adjacent suffixes are in order.
  for (std::size_t i = 1; i < n; ++i) {
    ASSERT_TRUE(std::lexicographical_compare(
                    text.begin() + sa[i - 1], text.end(),
                    text.begin() + sa[i], text.end()) ||
                std::equal(text.begin() + sa[i - 1], text.end(),
                           text.begin() + sa[i]))
        << "unsorted at " << i;
  }
}

// --- cluster simulator: scheduling laws ---------------------------------------

TEST_P(SeedSweep, MakespanMonotoneAndBounded) {
  Rng rng(GetParam() * 43);
  sim::SimJob job;
  const int n_stages = 1 + static_cast<int>(rng.below(4));
  for (int s = 0; s < n_stages; ++s) {
    sim::SimStage stage;
    stage.name = "s" + std::to_string(s);
    stage.phase = "p";
    const std::size_t tasks = 1 + rng.below(600);
    for (std::size_t t = 0; t < tasks; ++t) {
      stage.tasks.push_back({0.01 + rng.uniform() * (rng.below(10) == 0
                                                         ? 5.0
                                                         : 0.2),
                             rng.below(1'000'000), rng.below(500'000)});
    }
    job.stages.push_back(std::move(stage));
  }

  double prev = 1e300;
  for (const std::size_t cores : {64, 128, 256, 512, 1024}) {
    const auto cluster = sim::ClusterConfig::with_cores(cores);
    const auto result = sim::simulate(job, cluster);
    // Monotone: more cores never hurt.
    ASSERT_LE(result.makespan, prev * 1.0001);
    prev = result.makespan;
    // Lower bound: total work never exceeds cores x makespan.
    double total = 0.0;
    for (const auto& sr : result.stages) {
      total += sr.compute_seconds + sr.disk_seconds + sr.net_seconds;
    }
    ASSERT_GE(result.makespan * static_cast<double>(cluster.total_cores()),
              total * 0.999);
  }
}

// --- shared filesystem: contention laws ----------------------------------------

TEST_P(SeedSweep, SharedFsIoFractionMonotoneInSamples) {
  Rng rng(GetParam() * 47);
  std::vector<sim::FilePipelineStep> steps;
  const int n_steps = 1 + static_cast<int>(rng.below(5));
  for (int s = 0; s < n_steps; ++s) {
    steps.push_back({"step" + std::to_string(s), 100.0 + rng.uniform() * 5000,
                     rng.below(20'000'000'000ULL),
                     rng.below(20'000'000'000ULL)});
  }
  for (const auto& fs :
       {sim::SharedFsConfig::lustre(), sim::SharedFsConfig::nfs()}) {
    double prev = -1.0;
    for (const std::size_t samples : {1, 2, 4, 8, 16, 32}) {
      const auto r = sim::run_file_pipeline(steps, samples, 16, fs);
      ASSERT_GE(r.io_fraction() + 1e-12, prev) << fs.name;
      prev = r.io_fraction();
    }
  }
}

}  // namespace
}  // namespace gpf
