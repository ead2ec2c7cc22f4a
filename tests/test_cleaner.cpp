// Tests for the Cleaner-stage algorithms: sorting, duplicate marking,
// indel realignment and BQSR.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "align/bwamem.hpp"
#include "align/fm_index.hpp"
#include "cleaner/bqsr.hpp"
#include "cleaner/indel_realign.hpp"
#include "cleaner/markdup.hpp"
#include "cleaner/sorter.hpp"
#include "common/rng.hpp"
#include "engine/fault_injector.hpp"
#include "simdata/read_sim.hpp"
#include "simdata/reference_gen.hpp"

namespace gpf::cleaner {
namespace {

SamRecord make_record(std::string qname, std::int32_t contig,
                      std::int64_t pos, bool reverse = false,
                      std::string seq = "ACGTACGT") {
  SamRecord r;
  r.qname = std::move(qname);
  r.contig_id = contig;
  r.pos = pos;
  if (reverse) r.flag |= SamFlags::kReverse;
  r.cigar = {{CigarOp::kMatch, static_cast<std::uint32_t>(seq.size())}};
  r.quality = std::string(seq.size(), 'I');
  r.sequence = std::move(seq);
  return r;
}

// --- sorter ---------------------------------------------------------------

TEST(Sorter, SortsByCoordinate) {
  std::vector<SamRecord> records = {
      make_record("c", 1, 5), make_record("a", 0, 100),
      make_record("b", 0, 7)};
  coordinate_sort(records);
  EXPECT_TRUE(is_coordinate_sorted(records));
  EXPECT_EQ(records[0].qname, "b");
  EXPECT_EQ(records[1].qname, "a");
  EXPECT_EQ(records[2].qname, "c");
}

TEST(Sorter, UnmappedSortLast) {
  SamRecord unmapped = make_record("u", -1, -1);
  unmapped.flag |= SamFlags::kUnmapped;
  std::vector<SamRecord> records = {unmapped, make_record("m", 0, 5)};
  coordinate_sort(records);
  EXPECT_EQ(records[0].qname, "m");
}

TEST(Sorter, MergeSortedRuns) {
  std::vector<std::vector<SamRecord>> runs(3);
  Rng rng(113);
  std::size_t total = 0;
  for (auto& run : runs) {
    for (int i = 0; i < 50; ++i) {
      const auto pos = static_cast<std::int64_t>(rng.below(10000));
      run.push_back(
          make_record(std::string("r").append(std::to_string(total++)), 0,
                      pos));
    }
    coordinate_sort(run);
  }
  const auto merged = merge_sorted_runs(std::move(runs));
  EXPECT_EQ(merged.size(), 150u);
  EXPECT_TRUE(is_coordinate_sorted(merged));
}

TEST(Sorter, LinearIndexFindsCandidates) {
  std::vector<SamRecord> records;
  for (int i = 0; i < 100; ++i) {
    records.push_back(
        make_record(std::string("r").append(std::to_string(i)), 0, i * 1000));
  }
  coordinate_sort(records);
  const LinearIndex index(records, 1);
  const std::size_t at = index.first_candidate(0, 50'000);
  ASSERT_LT(at, records.size());
  EXPECT_LE(records[at].pos, 50'000);
  // Scanning from the hint reaches position 50000.
  bool found = false;
  for (std::size_t i = at; i < records.size() && records[i].pos <= 50'000;
       ++i) {
    if (records[i].pos == 50'000) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(index.first_candidate(5, 0), records.size());
}

// --- duplicate marking ------------------------------------------------------

TEST(MarkDup, IdenticalFragmentsMarked) {
  // Three single-end reads at the same position/strand: keep best quality.
  auto a = make_record("a", 0, 100);
  auto b = make_record("b", 0, 100);
  auto c = make_record("c", 0, 100);
  a.quality = std::string(8, 'I');  // highest
  b.quality = std::string(8, '5');
  c.quality = std::string(8, '#');
  std::vector<SamRecord> records = {a, b, c};
  const auto stats = mark_duplicates(records);
  EXPECT_EQ(stats.duplicates_marked, 2u);
  EXPECT_FALSE(records[0].is_duplicate());
  EXPECT_TRUE(records[1].is_duplicate());
  EXPECT_TRUE(records[2].is_duplicate());
}

TEST(MarkDup, DifferentPositionsNotMarked) {
  std::vector<SamRecord> records = {make_record("a", 0, 100),
                                    make_record("b", 0, 101),
                                    make_record("c", 1, 100)};
  const auto stats = mark_duplicates(records);
  EXPECT_EQ(stats.duplicates_marked, 0u);
}

TEST(MarkDup, StrandDistinguishes) {
  std::vector<SamRecord> records = {make_record("a", 0, 100, false),
                                    make_record("b", 0, 100, true)};
  // Reverse record's unclipped start is its end, so these differ twice
  // over; never duplicates.
  const auto stats = mark_duplicates(records);
  EXPECT_EQ(stats.duplicates_marked, 0u);
}

TEST(MarkDup, SoftClipAwareSignature) {
  // A soft-clipped read starting "later" still has the same unclipped
  // start as an unclipped read — Picard marks these as duplicates.
  auto a = make_record("a", 0, 100);
  auto b = make_record("b", 0, 103, false);
  b.cigar = parse_cigar("3S5M");
  b.sequence = "ACGTACGT";
  b.quality = "########";  // worse than a
  std::vector<SamRecord> records = {a, b};
  const auto stats = mark_duplicates(records);
  EXPECT_EQ(stats.duplicates_marked, 1u);
  EXPECT_TRUE(records[1].is_duplicate());
}

TEST(MarkDup, PairedSignatureUsesBothEnds) {
  auto mk_pair = [](const std::string& name, std::int64_t pos1,
                    std::int64_t pos2) {
    auto r1 = make_record(name + "/r1", 0, pos1);
    r1.qname = name;
    r1.flag |= SamFlags::kPaired | SamFlags::kFirstOfPair |
               SamFlags::kMateReverse;
    r1.mate_contig_id = 0;
    r1.mate_pos = pos2;
    auto r2 = make_record(name + "/r2", 0, pos2, true);
    r2.qname = name;
    r2.flag |= SamFlags::kPaired | SamFlags::kSecondOfPair;
    r2.mate_contig_id = 0;
    r2.mate_pos = pos1;
    return std::vector<SamRecord>{r1, r2};
  };
  auto p1 = mk_pair("f1", 100, 300);
  auto p2 = mk_pair("f2", 100, 300);  // duplicate fragment
  auto p3 = mk_pair("f3", 100, 400);  // different mate position
  std::vector<SamRecord> records;
  for (auto* p : {&p1, &p2, &p3}) {
    records.insert(records.end(), p->begin(), p->end());
  }
  const auto stats = mark_duplicates(records);
  // Both records of exactly one of f1/f2 are marked.
  std::size_t marked_f1 = 0, marked_f2 = 0, marked_f3 = 0;
  for (const auto& r : records) {
    if (!r.is_duplicate()) continue;
    if (r.qname == "f1") ++marked_f1;
    if (r.qname == "f2") ++marked_f2;
    if (r.qname == "f3") ++marked_f3;
  }
  EXPECT_EQ(marked_f1 + marked_f2, 2u);
  EXPECT_TRUE(marked_f1 == 0 || marked_f2 == 0);
  EXPECT_EQ(marked_f3, 0u);
  EXPECT_EQ(stats.duplicates_marked, 2u);
}

TEST(MarkDup, SimulatedDuplicatesRecovered) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(100'000, 131));
  const simdata::Donor donor(ref, {});
  simdata::ReadSimSpec spec;
  spec.coverage = 8.0;
  spec.duplicate_fraction = 0.08;
  const auto sample = simdata::simulate_reads(ref, donor, spec);

  const align::FmIndex index(ref);
  const align::ReadAligner aligner(index);
  std::vector<SamRecord> records;
  for (const auto& pair : sample.pairs) {
    auto [r1, r2] = aligner.align_pair(pair);
    records.push_back(std::move(r1));
    records.push_back(std::move(r2));
  }
  const auto stats = mark_duplicates(records);
  // Each simulated duplicate pair contributes 2 duplicate records.  Allow
  // slack for alignment noise and coincidental fragment collisions.
  const double expected = 2.0 * static_cast<double>(sample.duplicate_pairs);
  EXPECT_GT(static_cast<double>(stats.duplicates_marked), expected * 0.8);
  EXPECT_LT(static_cast<double>(stats.duplicates_marked), expected * 1.6);
}

TEST(MarkDup, RerunIsIdempotent) {
  std::vector<SamRecord> records = {make_record("a", 0, 100),
                                    make_record("b", 0, 100)};
  const auto first = mark_duplicates(records);
  const auto second = mark_duplicates(records);
  EXPECT_EQ(first.duplicates_marked, second.duplicates_marked);
}

// --- indel realignment -------------------------------------------------------

TEST(IndelRealign, TargetsFromCigarsAndKnownSites) {
  auto with_indel = make_record("i", 0, 500);
  with_indel.cigar = parse_cigar("4M2D4M");
  std::vector<SamRecord> records = {make_record("m", 0, 100), with_indel};
  std::vector<VcfRecord> known = {
      {0, 900, ".", "AT", "A", 50.0, Genotype::kHet},   // indel: target
      {0, 950, ".", "A", "C", 50.0, Genotype::kHet}};   // SNP: ignored
  RealignOptions options;
  const auto targets = find_realign_targets(records, known, options);
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0].start, 504);
  EXPECT_EQ(targets[1].start, 900);
}

TEST(IndelRealign, NearbyTargetsMerge) {
  auto a = make_record("a", 0, 100);
  a.cigar = parse_cigar("4M1D4M");
  auto b = make_record("b", 0, 120);
  b.cigar = parse_cigar("4M1I4M");
  RealignOptions options;
  options.merge_window = 50;
  const auto targets = find_realign_targets(
      std::vector<SamRecord>{a, b}, {}, options);
  EXPECT_EQ(targets.size(), 1u);
}

TEST(IndelRealign, RecoversBetterAlignmentAroundDeletion) {
  // Reference with a unique context; read sequenced from a donor with a
  // 4-base deletion, but initially aligned with mismatches instead of the
  // gap.
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(2'000, 137));
  const std::string& seq = ref.contig(0).sequence;
  // Donor read: 40 bases, skipping ref[520..524).
  std::string read = seq.substr(500, 20) + seq.substr(524, 20);

  SamRecord rec;
  rec.qname = "r";
  rec.contig_id = 0;
  rec.pos = 500;
  rec.cigar = parse_cigar("40M");  // misaligned: no gap
  rec.sequence = read;
  rec.quality = std::string(40, 'I');

  std::vector<SamRecord> records = {rec};
  std::vector<VcfRecord> known = {
      {0, 519, ".", seq.substr(519, 5), seq.substr(519, 1), 50.0,
       Genotype::kHet}};
  RealignOptions options;
  const auto targets = find_realign_targets(records, known, options);
  ASSERT_FALSE(targets.empty());
  const auto stats = realign_reads(records, ref, targets, options);
  EXPECT_EQ(stats.reads_realigned, 1u);
  // The new CIGAR must contain a 4-base deletion.
  bool has_del = false;
  for (const auto& el : records[0].cigar) {
    if (el.op == CigarOp::kDeletion && el.length == 4) has_del = true;
  }
  EXPECT_TRUE(has_del) << cigar_to_string(records[0].cigar);
}

TEST(IndelRealign, LeavesGoodAlignmentsAlone) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(2'000, 139));
  SamRecord rec;
  rec.qname = "r";
  rec.contig_id = 0;
  rec.pos = 300;
  rec.sequence = std::string(ref.slice(0, 300, 50));
  rec.quality = std::string(50, 'I');
  rec.cigar = parse_cigar("50M");
  std::vector<SamRecord> records = {rec};
  std::vector<VcfRecord> known = {
      {0, 320, ".", "AT", "A", 50.0, Genotype::kHet}};
  RealignOptions options;
  const auto targets = find_realign_targets(records, known, options);
  const Cigar before = records[0].cigar;
  realign_reads(records, ref, targets, options);
  EXPECT_EQ(records[0].cigar, before);
  EXPECT_EQ(records[0].pos, 300);
}

// --- BQSR ---------------------------------------------------------------------

TEST(Bqsr, KnownSitesMembership) {
  std::vector<VcfRecord> sites = {{0, 100, ".", "ACG", "A", 0, Genotype::kHet},
                                  {1, 5, ".", "A", "T", 0, Genotype::kHet}};
  const KnownSites known(sites);
  EXPECT_TRUE(known.contains(0, 100));
  EXPECT_TRUE(known.contains(0, 102));  // deletion span covered
  EXPECT_FALSE(known.contains(0, 103));
  EXPECT_TRUE(known.contains(1, 5));
  EXPECT_FALSE(known.contains(1, 6));
}

TEST(Bqsr, TableMergeAddsCounts) {
  RecalTable a, b;
  a.observe(30, 5, 0, true);
  a.observe(30, 5, 0, false);
  b.observe(30, 5, 0, false);
  a.merge(b);
  EXPECT_EQ(a.total_observations(), 3u);
  EXPECT_EQ(a.total_mismatches(), 1u);
}

TEST(Bqsr, EmpiricalQualityTracksErrorRate) {
  RecalTable t;
  // Reported Q40 but actual error rate 10% -> empirical ~Q10.
  for (int i = 0; i < 1000; ++i) t.observe(40, 10, 3, i % 10 == 0);
  const double q = t.empirical_quality(40, 10, 3);
  EXPECT_NEAR(q, 10.0, 1.0);
}

TEST(Bqsr, DinucleotideContext) {
  EXPECT_EQ(dinucleotide_context('A', 'A'), 0);
  EXPECT_EQ(dinucleotide_context('T', 'T'), 15);
  EXPECT_EQ(dinucleotide_context('N', 'A'), -1);
}

TEST(Bqsr, CollectSkipsKnownSitesAndDuplicates) {
  Reference ref(std::vector<FastaContig>{{"c", std::string(1000, 'A')}});
  auto rec = make_record("r", 0, 100, false, "AAAAAAAA");
  auto dup = rec;
  dup.flag |= SamFlags::kDuplicate;
  std::vector<VcfRecord> sites;
  for (int i = 0; i < 8; ++i) {
    sites.push_back({0, 100 + i, ".", "A", "C", 0, Genotype::kHet});
  }
  const KnownSites known(sites);
  const RecalTable with_mask =
      collect_covariates(std::vector<SamRecord>{rec}, ref, known);
  EXPECT_EQ(with_mask.total_observations(), 0u);  // fully masked
  const RecalTable dup_only =
      collect_covariates(std::vector<SamRecord>{dup}, ref, KnownSites(std::span<const VcfRecord>{}));
  EXPECT_EQ(dup_only.total_observations(), 0u);  // duplicates skipped
  const RecalTable normal =
      collect_covariates(std::vector<SamRecord>{rec}, ref, KnownSites(std::span<const VcfRecord>{}));
  EXPECT_EQ(normal.total_observations(), 8u);
}

TEST(Bqsr, ApplyCorrectsInflatedQualities) {
  // Reads claim Q40 but mismatch the reference 10% of the time (random
  // substitutions over a random reference, so no covariate is secretly
  // perfectly informative); after recalibration their mean quality should
  // drop toward Q10.
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(10'000, 149));
  Rng rng(149);
  std::vector<SamRecord> records;
  const char bases[] = {'A', 'C', 'G', 'T'};
  for (int i = 0; i < 50; ++i) {
    std::string seq(ref.slice(0, i * 150, 100));
    for (auto& c : seq) {
      if (rng.chance(0.1)) {
        char nc;
        do {
          nc = bases[rng.below(4)];
        } while (nc == c);
        c = nc;
      }
    }
    auto rec = make_record(std::string("r").append(std::to_string(i)), 0,
                           i * 150, false, seq);
    rec.quality = std::string(100, static_cast<char>(33 + 40));
    rec.cigar = {{CigarOp::kMatch, 100}};
    records.push_back(std::move(rec));
  }
  const RecalTable table = collect_covariates(records, ref, KnownSites(std::span<const VcfRecord>{}));
  const double before_mean = 40.0;
  apply_recalibration(records, table);
  double after_sum = 0.0;
  std::size_t n = 0;
  for (const auto& r : records) {
    for (const char q : r.quality) {
      after_sum += q - 33;
      ++n;
    }
  }
  const double after_mean = after_sum / static_cast<double>(n);
  EXPECT_LT(after_mean, before_mean - 20.0);
  EXPECT_NEAR(after_mean, 10.0, 3.0);
}

TEST(Bqsr, BroadcastTableSizeIsStable) {
  RecalTable t;
  const std::size_t empty_size = t.byte_size();
  t.observe(30, 1, 1, false);
  EXPECT_EQ(t.byte_size(), empty_size);  // fixed-shape table
  EXPECT_GT(empty_size, 100'000u);       // multi-100KB broadcast payload
}

// --- BQSR differential wall ---------------------------------------------
//
// apply_recalibration indexes bins smoothed once per call; the oracle is
// the per-base loop over RecalTable::empirical_quality it replaced.
// Tables and reads are drawn under GPF_FUZZ_SEED, which CI sweeps under
// ASan.

std::uint64_t fuzz_seed() {
  return engine::seed_from_env("GPF_FUZZ_SEED", 42);
}

ApplyStats apply_by_empirical_quality(std::vector<SamRecord>& records,
                                      const RecalTable& table) {
  ApplyStats stats;
  for (auto& rec : records) {
    if (rec.is_unmapped()) continue;
    for (std::size_t i = 0; i < rec.quality.size(); ++i) {
      ++stats.bases_seen;
      const int reported = rec.quality[i] - 33;
      const char prev = i > 0 ? rec.sequence[i - 1] : 'N';
      const int context = dinucleotide_context(prev, rec.sequence[i]);
      const double emp =
          table.empirical_quality(reported, static_cast<int>(i), context);
      const int recal = static_cast<int>(std::lround(emp));
      const char out = static_cast<char>(std::clamp(recal, 1, 93) + 33);
      if (out != rec.quality[i]) {
        rec.quality[i] = out;
        ++stats.bases_adjusted;
      }
    }
  }
  return stats;
}

/// A table with observations in a random subset of quality bins (the rest
/// stay empty), spread over every cycle bin and context, -1 included.
RecalTable random_table(Rng& rng, std::size_t observations) {
  RecalTable table;
  std::vector<int> qualities;
  for (int q = 0; q < RecalTable::kMaxQuality; ++q) {
    if (rng.chance(0.3)) qualities.push_back(q);
  }
  if (qualities.empty()) return table;
  for (std::size_t k = 0; k < observations; ++k) {
    const int q = qualities[rng.below(qualities.size())];
    // Mostly short cycles, some past kMaxCycle (clamped into the last bin).
    const int cycle = static_cast<int>(rng.below(rng.chance(0.9) ? 160 : 700));
    const int context = static_cast<int>(rng.range(-1, 15));
    table.observe(q, cycle, context, rng.chance(0.02 + 0.3 * rng.uniform()));
  }
  return table;
}

/// Reads over ACGTN with qualities below '!' and above Q93, some longer
/// than kMaxCycle, plus unmapped reads that must stay untouched.
std::vector<SamRecord> random_reads(Rng& rng, std::size_t count) {
  static constexpr char kBases[] = {'A', 'C', 'G', 'T', 'N'};
  std::vector<SamRecord> records;
  for (std::size_t k = 0; k < count; ++k) {
    const auto len = static_cast<std::size_t>(
        rng.chance(0.05) ? rng.range(513, 700) : rng.range(1, 160));
    std::string seq(len, 'A');
    std::string qual(len, 'I');
    for (std::size_t i = 0; i < len; ++i) {
      seq[i] = kBases[rng.chance(0.05) ? 4 : rng.below(4)];
      // Now and then any byte from '\x01' to DEL: below '!', above Q93.
      qual[i] = static_cast<char>(rng.chance(0.05) ? rng.range(1, 127)
                                                   : 33 + rng.range(2, 45));
    }
    auto rec = make_record("r" + std::to_string(k), 0,
                           static_cast<std::int64_t>(k), false, seq);
    rec.quality = qual;
    if (rng.chance(0.05)) rec.flag |= SamFlags::kUnmapped;
    records.push_back(std::move(rec));
  }
  return records;
}

TEST(BqsrDifferential, BinsEqualEmpiricalQualityEveryBin) {
  Rng rng(fuzz_seed());
  for (const std::size_t observations : {0, 50, 20'000}) {
    const RecalTable table = random_table(rng, observations);
    for (const int cycles : {1, 37, RecalTable::kMaxCycle}) {
      RecalTable::Bins bins;
      table.smoothed_bins(cycles, bins);
      for (int q = -3; q < RecalTable::kMaxQuality + 3; ++q) {
        for (int cycle = 0; cycle < cycles; ++cycle) {
          for (int context = -1; context <= RecalTable::kContexts; ++context) {
            const double want = table.empirical_quality(q, cycle, context);
            const double got = bins.quality(q, cycle, context);
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                      std::bit_cast<std::uint64_t>(want))
                << "q " << q << " cycle " << cycle << " context " << context
                << " cycles " << cycles << " obs " << observations;
          }
        }
      }
    }
    // Past the last bin, every cycle reads the last bin.
    RecalTable::Bins bins;
    table.smoothed_bins(RecalTable::kMaxCycle, bins);
    for (const int cycle : {RecalTable::kMaxCycle, 600, 100'000}) {
      EXPECT_EQ(bins.quality(30, cycle, 5),
                table.empirical_quality(30, cycle, 5));
    }
  }
}

TEST(BqsrDifferential, ApplyMatchesPerBaseEmpiricalQuality) {
  Rng rng(fuzz_seed() ^ 0x5bd1e995);
  for (int trial = 0; trial < 12; ++trial) {
    const RecalTable table =
        random_table(rng, trial == 0 ? 0 : rng.below(30'000));
    const std::vector<SamRecord> reads = random_reads(rng, 60);
    std::vector<SamRecord> fast = reads;
    std::vector<SamRecord> oracle = reads;
    const ApplyStats got = apply_recalibration(fast, table);
    const ApplyStats want = apply_by_empirical_quality(oracle, table);
    EXPECT_EQ(got.bases_seen, want.bases_seen) << "trial " << trial;
    EXPECT_EQ(got.bases_adjusted, want.bases_adjusted) << "trial " << trial;
    for (std::size_t k = 0; k < reads.size(); ++k) {
      ASSERT_EQ(fast[k].quality, oracle[k].quality)
          << "trial " << trial << " read " << k << " length "
          << reads[k].sequence.size();
    }
  }
  // No records, or only unmapped ones: nothing seen, nothing adjusted.
  std::vector<SamRecord> none;
  const ApplyStats empty = apply_recalibration(none, random_table(rng, 100));
  EXPECT_EQ(empty.bases_seen, 0u);
}

// --- IndelRealign differential wall -------------------------------------
//
// Reads drawn across 20-30 bp indels, wider than the aligner's band, and
// first placed without the gap, so the realigner does rewrite them.  The
// batched realign_reads must equal the one-read-at-a-time glocal() loop it
// replaced: every CIGAR and position, and RealignStats.  CI runs this
// uncapped and at each GPF_SIMD_MAX cap, under ASan.

RealignStats realign_one_by_one(std::vector<SamRecord>& records,
                                const Reference& reference,
                                std::span<const RealignTarget> targets,
                                const RealignOptions& options) {
  RealignStats stats;
  stats.targets = targets.size();
  if (targets.empty()) return stats;
  for (auto& rec : records) {
    if (rec.is_unmapped() || rec.is_secondary()) continue;
    const std::int64_t lo = rec.pos;
    const std::int64_t hi = rec.end_pos();
    auto it = std::lower_bound(
        targets.begin(), targets.end(), rec,
        [](const RealignTarget& t, const SamRecord& r) {
          if (t.contig_id != r.contig_id) return t.contig_id < r.contig_id;
          return t.end <= r.pos;
        });
    if (it == targets.end() || !it->overlaps(rec.contig_id, lo, hi)) continue;
    ++stats.reads_considered;
    const std::int64_t win_lo =
        std::min(lo, it->start) - options.window_flank;
    const std::int64_t win_hi = std::max(hi, it->end) + options.window_flank;
    const std::string_view window =
        reference.slice(rec.contig_id, win_lo, win_hi - win_lo);
    if (window.size() < rec.sequence.size()) continue;
    const align::AlignmentResult r =
        align::glocal(rec.sequence, window, options.scoring, options.band);
    if (r.cigar.empty()) continue;
    if (r.score <= current_alignment_score(rec, reference, options.scoring)) {
      continue;
    }
    Cigar cigar;
    if (r.query_start > 0) {
      cigar.push_back({CigarOp::kSoftClip,
                       static_cast<std::uint32_t>(r.query_start)});
    }
    cigar.insert(cigar.end(), r.cigar.begin(), r.cigar.end());
    const auto tail =
        static_cast<std::int32_t>(rec.sequence.size()) - r.query_end;
    if (tail > 0) {
      cigar.push_back({CigarOp::kSoftClip, static_cast<std::uint32_t>(tail)});
    }
    rec.cigar = std::move(cigar);
    rec.pos = std::max<std::int64_t>(0, win_lo) + r.ref_start;
    ++stats.reads_realigned;
  }
  return stats;
}

struct RealignCase {
  Reference reference;
  std::vector<SamRecord> records;
  std::vector<VcfRecord> known;
  std::int64_t bound_read_pos = 0;  // where the two skip-bound reads sit
};

/// Indels of 20-30 bp every ~1 kb of a random contig, each crossed by
/// reads placed as all-M (or M plus a soft clip) from the donor read's
/// start; plus clean reads, N-bearing reads, secondary and unmapped reads,
/// and reads at both contig ends.
RealignCase random_realign_case(Rng& rng) {
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  constexpr std::int64_t kLength = 12'000;
  RealignCase c{simdata::generate_reference(simdata::ReferenceSpec::single(
                    kLength, rng.below(1'000'000))),
                {},
                {},
                0};
  const std::string& seq = c.reference.contig(0).sequence;
  auto add = [&c](std::string read, std::int64_t pos, Cigar cigar) {
    auto rec = make_record("r" + std::to_string(c.records.size()), 0, pos,
                           false, std::move(read));
    rec.cigar = std::move(cigar);
    c.records.push_back(std::move(rec));
  };
  for (std::int64_t site = 600; site + 700 < kLength; site += 1'000) {
    const auto len = static_cast<std::size_t>(rng.range(20, 30));
    std::string donor = seq.substr(static_cast<std::size_t>(site) - 300, 300);
    if (rng.chance(0.5)) {  // deletion of seq[site, site + len)
      donor += seq.substr(static_cast<std::size_t>(site) + len, 300);
      c.known.push_back({0, site - 1, ".", seq.substr(site - 1, len + 1),
                         seq.substr(site - 1, 1), 50.0, Genotype::kHet});
    } else {  // insertion before seq[site]
      std::string ins(len, 'A');
      for (auto& b : ins) b = kBases[rng.below(4)];
      donor += ins + seq.substr(static_cast<std::size_t>(site), 300);
      c.known.push_back({0, site - 1, ".", seq.substr(site - 1, 1),
                         seq.substr(site - 1, 1) + ins, 50.0,
                         Genotype::kHet});
    }
    for (int k = 0; k < 14; ++k) {
      const auto read_len = static_cast<std::size_t>(rng.range(60, 150));
      // Starts that put the breakpoint inside the read.
      const auto offset = static_cast<std::size_t>(
          rng.range(300 - static_cast<std::int64_t>(read_len) + 8, 292));
      std::string read = donor.substr(offset, read_len);
      const std::int64_t pos = site - 300 + static_cast<std::int64_t>(offset);
      const auto n = static_cast<std::uint32_t>(read_len);
      if (rng.chance(0.25)) {
        // The aligner's soft-clipped answer: the part past the indel clipped.
        const std::uint32_t kept = static_cast<std::uint32_t>(300 - offset);
        add(std::move(read), pos,
            {{CigarOp::kMatch, kept}, {CigarOp::kSoftClip, n - kept}});
      } else {
        if (rng.chance(0.2)) read[rng.below(read_len)] = 'N';
        add(std::move(read), pos, {{CigarOp::kMatch, n}});
      }
    }
    // Clean reads inside the target window: they already reach the
    // glocal bound and are not queued.
    for (int k = 0; k < 4; ++k) {
      const std::int64_t pos = site - 200 + rng.range(0, 60);
      add(seq.substr(static_cast<std::size_t>(pos), 100), pos,
          {{CigarOp::kMatch, 100}});
    }
  }
  // A read sitting exactly at the skip bound (100 matches: score 100), and
  // one a point below it (its first base clipped: score 99), which glocal
  // beats by aligning the clipped base.
  const std::int64_t at = c.known.front().pos - 40;
  c.bound_read_pos = at;
  add(seq.substr(static_cast<std::size_t>(at), 100), at,
      {{CigarOp::kMatch, 100}});
  add(seq.substr(static_cast<std::size_t>(at), 100), at + 1,
      {{CigarOp::kSoftClip, 1}, {CigarOp::kMatch, 99}});
  // Secondary and unmapped reads are never considered.
  for (const std::uint16_t flag : {SamFlags::kSecondary, SamFlags::kUnmapped}) {
    add(seq.substr(static_cast<std::size_t>(at), 50), at,
        {{CigarOp::kMatch, 50}});
    c.records.back().flag |= flag;
  }
  // Reads at the contig ends, with targets there: the window is clipped at
  // position 0 and at the contig end, where it is shorter than a read that
  // runs 200 bases past the end.
  c.known.push_back({0, 10, ".", seq.substr(10, 3), seq.substr(10, 1), 50.0,
                     Genotype::kHet});
  c.known.push_back({0, kLength - 20, ".", seq.substr(kLength - 20, 3),
                     seq.substr(kLength - 20, 1), 50.0, Genotype::kHet});
  add(seq.substr(0, 20) + seq.substr(23, 60), 0, {{CigarOp::kMatch, 80}});
  std::string tail_read = seq.substr(kLength - 150, 150);
  tail_read[75] = tail_read[75] == 'A' ? 'C' : 'A';
  add(tail_read, kLength - 150, {{CigarOp::kMatch, 150}});
  std::string past_end = seq.substr(kLength - 100, 100);
  for (int k = 0; k < 200; ++k) past_end += kBases[rng.below(4)];
  add(std::move(past_end), kLength - 100, {{CigarOp::kMatch, 300}});
  std::sort(
      c.known.begin(), c.known.end(),
      [](const VcfRecord& a, const VcfRecord& b) { return a.pos < b.pos; });
  coordinate_sort(c.records);
  return c;
}

void expect_realign_equal(const RealignCase& c, const RealignOptions& options,
                          const std::string& label) {
  const auto targets = find_realign_targets(c.records, c.known, options);
  std::vector<SamRecord> batched = c.records;
  std::vector<SamRecord> oracle = c.records;
  const RealignStats got =
      realign_reads(batched, c.reference, targets, options);
  const RealignStats want =
      realign_one_by_one(oracle, c.reference, targets, options);
  EXPECT_EQ(got.targets, want.targets) << label;
  EXPECT_EQ(got.reads_considered, want.reads_considered) << label;
  EXPECT_EQ(got.reads_realigned, want.reads_realigned) << label;
  for (std::size_t k = 0; k < oracle.size(); ++k) {
    ASSERT_EQ(batched[k].pos, oracle[k].pos) << label << " read " << k;
    ASSERT_EQ(cigar_to_string(batched[k].cigar),
              cigar_to_string(oracle[k].cigar))
        << label << " read " << k;
  }
  EXPECT_EQ(batched, oracle) << label;
}

TEST(RealignDifferential, BatchedEqualsOneByOne) {
  Rng rng(fuzz_seed());
  for (int trial = 0; trial < 3; ++trial) {
    const RealignCase c = random_realign_case(rng);
    RealignOptions options;
    const auto targets = find_realign_targets(c.records, c.known, options);
    std::vector<SamRecord> records = c.records;
    const RealignStats stats =
        realign_reads(records, c.reference, targets, options);
    // The fixture reaches the accept branch, and not for every read.
    EXPECT_GT(stats.reads_realigned, 20u) << "trial " << trial;
    EXPECT_LT(stats.reads_realigned, stats.reads_considered);
    expect_realign_equal(c, options, "trial " + std::to_string(trial));
  }
}

TEST(RealignDifferential, ReadAtTheSkipBoundIsLeftAlone) {
  Rng rng(fuzz_seed() ^ 0x2545f491);
  const RealignCase c = random_realign_case(rng);
  RealignOptions options;
  const auto targets = find_realign_targets(c.records, c.known, options);
  std::vector<SamRecord> records = c.records;
  realign_reads(records, c.reference, targets, options);
  // Locate the two bound reads: 100 bases, at and one past `at`.
  const std::int64_t at = c.bound_read_pos;
  int checked = 0;
  for (std::size_t k = 0; k < records.size(); ++k) {
    const SamRecord& before = c.records[k];
    if (before.sequence.size() != 100 || before.pos < at ||
        before.pos > at + 1 || before.is_secondary()) {
      continue;
    }
    if (before.cigar.size() == 1 && before.pos == at) {
      EXPECT_EQ(current_alignment_score(before, c.reference, options.scoring),
                100);
      EXPECT_EQ(records[k], before);  // at the bound: unchanged
      ++checked;
    } else if (before.cigar.size() == 2) {
      EXPECT_EQ(current_alignment_score(before, c.reference, options.scoring),
                99);
      EXPECT_EQ(cigar_to_string(records[k].cigar), "100M");
      EXPECT_EQ(records[k].pos, at);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 2);
}

TEST(RealignDifferential, OtherScoringSchemes) {
  // Scores where N is free, and where gaps score positively: the bound
  // does not hold there, so nothing may be skipped.
  Rng rng(fuzz_seed() ^ 0x9e3779b9);
  const RealignCase c = random_realign_case(rng);
  RealignOptions n_free;
  n_free.scoring = {.match = 2, .mismatch = -3, .gap_open = -5,
                    .gap_extend = -2, .n_score = 0};
  expect_realign_equal(c, n_free, "N scores 0");
  RealignOptions gap_bonus;
  gap_bonus.scoring.gap_extend = 1;
  gap_bonus.band = 8;
  expect_realign_equal(c, gap_bonus, "positive gap extension");
}

TEST(MarkDup, SecondaryAndUnmappedNeverMarked) {
  auto secondary = make_record("s", 0, 100);
  secondary.flag |= SamFlags::kSecondary;
  auto primary1 = make_record("a", 0, 100);
  auto primary2 = make_record("b", 0, 100);
  SamRecord unmapped = make_record("u", -1, -1);
  unmapped.flag |= SamFlags::kUnmapped;
  std::vector<SamRecord> records = {secondary, primary1, primary2, unmapped};
  const auto stats = mark_duplicates(records);
  EXPECT_EQ(stats.duplicates_marked, 1u);  // only one of a/b
  EXPECT_FALSE(records[0].is_duplicate());
  EXPECT_FALSE(records[3].is_duplicate());
}

TEST(MarkDup, PreexistingFlagsCleared) {
  // Re-running on records with stale duplicate flags must re-derive from
  // scratch (Picard semantics).
  auto a = make_record("a", 0, 100);
  a.flag |= SamFlags::kDuplicate;  // stale: it is the only record
  std::vector<SamRecord> records = {a};
  mark_duplicates(records);
  EXPECT_FALSE(records[0].is_duplicate());
}

TEST(MarkDup, EqualScoresKeepTheFirstArrival) {
  // The tie-break the key exchange must reproduce: among equal best scores
  // the first record in dataset order wins.
  std::vector<SamRecord> records = {make_record("b", 0, 100),
                                    make_record("a", 0, 100),
                                    make_record("c", 0, 100)};
  mark_duplicates(records);
  EXPECT_FALSE(records[0].is_duplicate());
  EXPECT_TRUE(records[1].is_duplicate());
  EXPECT_TRUE(records[2].is_duplicate());
}

TEST(MarkDup, DecideReportsKeyPositions) {
  std::vector<DupKey> keys = {
      dup_key(make_record("x", 0, 100), 3, 7),
      dup_key(make_record("y", 0, 500), 3, 9),
      dup_key(make_record("z", 0, 100), 5, 0),
  };
  keys[2].score = keys[0].score + 1;  // z wins its group
  std::vector<std::size_t> marked;
  EXPECT_EQ(decide_duplicates(keys, marked), 2u);
  EXPECT_EQ(marked, std::vector<std::size_t>{0});
}

// --- duplicate-key codec ------------------------------------------------------

std::vector<DupKey> sample_dup_keys() {
  std::vector<DupKey> keys;
  DupKey k;
  k.signature = {0, -12, true, 0, 4'000'000'000LL, false};
  k.score = 1234;
  k.qname = "read:1/frag";
  k.partition = 7;
  k.index = 3;
  keys.push_back(k);
  k.signature = {2, 150, false, -1, -1, false};
  k.score = 0;
  k.qname = "";
  k.partition = 0;  // partitions and indices need not ascend
  k.index = 1ULL << 40;
  keys.push_back(k);
  k.signature = {1, 99, true, 1, 98, true};
  k.score = 7;
  k.qname = std::string(300, 'q');
  k.partition = UINT32_MAX;
  k.index = 0;
  keys.push_back(k);
  return keys;
}

TEST(DupKeyCodec, RoundTrip) {
  const auto keys = sample_dup_keys();
  std::vector<std::uint8_t> bytes = {0xff, 0xff};  // encode clears first
  encode_dup_keys(keys, bytes);
  EXPECT_EQ(decode_dup_keys(bytes), keys);
  encode_dup_keys({}, bytes);
  EXPECT_TRUE(decode_dup_keys(bytes).empty());
}

TEST(DupKeyCodec, MalformedInputThrows) {
  std::vector<std::uint8_t> bytes;
  encode_dup_keys(sample_dup_keys(), bytes);
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    const std::span<const std::uint8_t> cut(bytes.data(), n);
    EXPECT_ANY_THROW(decode_dup_keys(cut)) << "truncated to " << n;
  }
  auto trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW(decode_dup_keys(trailing), std::invalid_argument);
  auto bad_magic = bytes;
  bad_magic[0] ^= 1;
  EXPECT_THROW(decode_dup_keys(bad_magic), std::invalid_argument);
  // A huge count fails before any allocation.
  std::vector<std::uint8_t> huge(bytes.begin(), bytes.begin() + 4);
  for (int i = 0; i < 6; ++i) huge.push_back(0xff);
  huge.push_back(0x01);
  EXPECT_THROW(decode_dup_keys(huge), std::out_of_range);
}

}  // namespace
}  // namespace gpf::cleaner
