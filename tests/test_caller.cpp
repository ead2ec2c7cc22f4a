// Tests for the HaplotypeCaller stack: active regions, assembly, pair-HMM,
// genotyping, and end-to-end variant calling against planted truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "align/bwamem.hpp"
#include "align/fm_index.hpp"
#include "caller/active_region.hpp"
#include "caller/assembler.hpp"
#include "caller/genotyper.hpp"
#include "caller/gvcf.hpp"
#include "caller/haplotype_caller.hpp"
#include "caller/pairhmm.hpp"
#include "cleaner/sorter.hpp"
#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "engine/fault_injector.hpp"
#include "simdata/read_sim.hpp"
#include "simdata/reference_gen.hpp"
#include "simdata/variant_gen.hpp"
#include "test_levels.hpp"

namespace gpf::caller {
namespace {

SamRecord read_at(const Reference& ref, std::int64_t pos, int len,
                  std::string seq = {}) {
  SamRecord r;
  r.qname = "r" + std::to_string(pos);
  r.contig_id = 0;
  r.pos = pos;
  r.sequence = seq.empty() ? std::string(ref.slice(0, pos, len)) : seq;
  r.quality = std::string(r.sequence.size(), 'I');
  r.cigar = {{CigarOp::kMatch, static_cast<std::uint32_t>(r.sequence.size())}};
  return r;
}

// --- active regions ------------------------------------------------------------

TEST(ActiveRegion, CleanReadsProduceNoRegions) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(10'000, 151));
  std::vector<SamRecord> records;
  for (int i = 0; i < 50; ++i) records.push_back(read_at(ref, i * 100, 80));
  const auto regions = find_active_regions(records, ref);
  EXPECT_TRUE(regions.empty());
}

TEST(ActiveRegion, SnpPileupCreatesRegion) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(10'000, 157));
  std::vector<SamRecord> records;
  for (int i = 0; i < 6; ++i) {
    auto rec = read_at(ref, 5000 - i * 10, 80);
    // Mutate the base covering reference position 5030.
    const std::size_t offset = static_cast<std::size_t>(5030 - rec.pos);
    rec.sequence[offset] = rec.sequence[offset] == 'A' ? 'C' : 'A';
    records.push_back(std::move(rec));
  }
  cleaner::coordinate_sort(records);
  const auto regions = find_active_regions(records, ref);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_LE(regions[0].start, 5030);
  EXPECT_GT(regions[0].end, 5030);
  EXPECT_EQ(regions[0].read_indices.size(), 6u);
}

TEST(ActiveRegion, DuplicatesContributeNothing) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(10'000, 163));
  std::vector<SamRecord> records;
  for (int i = 0; i < 6; ++i) {
    auto rec = read_at(ref, 5000, 80);
    rec.sequence[30] = rec.sequence[30] == 'A' ? 'C' : 'A';
    rec.flag |= SamFlags::kDuplicate;
    records.push_back(std::move(rec));
  }
  EXPECT_TRUE(find_active_regions(records, ref).empty());
}

TEST(ActiveRegion, LowQualityMismatchesIgnored) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(10'000, 167));
  std::vector<SamRecord> records;
  for (int i = 0; i < 6; ++i) {
    auto rec = read_at(ref, 5000, 80);
    rec.sequence[30] = rec.sequence[30] == 'A' ? 'C' : 'A';
    rec.quality[30] = '#';  // Phred 2
    records.push_back(std::move(rec));
  }
  EXPECT_TRUE(find_active_regions(records, ref).empty());
}

// --- assembler ------------------------------------------------------------------

TEST(Assembler, ReferenceOnlyWithoutReads) {
  const std::string window(200, 'A');
  const auto result = assemble_haplotypes({}, window);
  ASSERT_EQ(result.haplotypes.size(), 1u);
  EXPECT_EQ(result.haplotypes[0], window);
  EXPECT_FALSE(result.assembled);
}

TEST(Assembler, RecoversSnpHaplotype) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(1'000, 173));
  const std::string window(ref.slice(0, 400, 150));
  std::string alt = window;
  alt[75] = alt[75] == 'A' ? 'G' : 'A';
  // Reads tiled across the alt haplotype.
  std::vector<std::string> reads;
  for (int start = 0; start + 60 <= 150; start += 10) {
    reads.push_back(alt.substr(start, 60));
    reads.push_back(alt.substr(start, 60));  // 2x support per kmer
  }
  std::vector<std::string_view> views(reads.begin(), reads.end());
  const auto result = assemble_haplotypes(views, window);
  EXPECT_TRUE(result.assembled);
  EXPECT_NE(std::find(result.haplotypes.begin(), result.haplotypes.end(),
                      alt),
            result.haplotypes.end());
}

TEST(Assembler, RecoversDeletionHaplotype) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(1'000, 179));
  const std::string window(ref.slice(0, 300, 160));
  const std::string alt = window.substr(0, 80) + window.substr(86);
  std::vector<std::string> reads;
  for (std::size_t start = 0; start + 60 <= alt.size(); start += 8) {
    reads.push_back(alt.substr(start, 60));
    reads.push_back(alt.substr(start, 60));
  }
  std::vector<std::string_view> views(reads.begin(), reads.end());
  const auto result = assemble_haplotypes(views, window);
  EXPECT_TRUE(result.assembled);
  EXPECT_NE(std::find(result.haplotypes.begin(), result.haplotypes.end(),
                      alt),
            result.haplotypes.end());
}

TEST(Assembler, LowSupportKmersPruned) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(1'000, 181));
  const std::string window(ref.slice(0, 100, 150));
  std::string alt = window;
  alt[75] = alt[75] == 'C' ? 'T' : 'C';
  // Only one read supports the alt: below min_kmer_count=2.
  std::vector<std::string> reads = {alt.substr(50, 60)};
  std::vector<std::string_view> views(reads.begin(), reads.end());
  const auto result = assemble_haplotypes(views, window);
  EXPECT_EQ(std::find(result.haplotypes.begin(), result.haplotypes.end(),
                      alt),
            result.haplotypes.end());
}

TEST(Assembler, HaplotypeCountBounded) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(1'000, 191));
  const std::string window(ref.slice(0, 0, 200));
  std::vector<std::string> reads;
  Rng rng(193);
  // Noisy reads create many branches.
  for (int i = 0; i < 100; ++i) {
    std::string r = window.substr(rng.below(130), 60);
    for (int m = 0; m < 4; ++m) {
      r[rng.below(r.size())] = "ACGT"[rng.below(4)];
    }
    reads.push_back(std::move(r));
    reads.push_back(reads.back());
  }
  std::vector<std::string_view> views(reads.begin(), reads.end());
  AssemblerOptions options;
  options.max_haplotypes = 8;
  const auto result = assemble_haplotypes(views, window, options);
  EXPECT_LE(result.haplotypes.size(), 9u);  // ref + max 8
}

// --- pair-HMM -------------------------------------------------------------------

TEST(PairHmm, PerfectMatchBeatsMismatch) {
  PairHmm hmm;
  const std::string hap = "ACGTACGTACGTACGTACGT";
  const std::string read = hap.substr(4, 12);
  std::string mismatched = read;
  mismatched[6] = mismatched[6] == 'A' ? 'C' : 'A';
  const std::string qual(read.size(), 'I');
  EXPECT_GT(hmm.log10_likelihood(read, qual, hap),
            hmm.log10_likelihood(mismatched, qual, hap));
}

TEST(PairHmm, HighQualityMismatchPenalizedMore) {
  PairHmm hmm;
  const std::string hap = "ACGTACGTACGTACGTACGT";
  std::string read = hap.substr(4, 12);
  read[6] = read[6] == 'A' ? 'C' : 'A';
  std::string high_q(read.size(), 'I');   // Q40
  std::string low_q(read.size(), '$');    // Q3
  EXPECT_LT(hmm.log10_likelihood(read, high_q, hap),
            hmm.log10_likelihood(read, low_q, hap));
}

TEST(PairHmm, GapCheaperThanManyMismatches) {
  PairHmm hmm;
  const std::string hap = "AAAACCCCGGGGTTTTAAAACCCC";
  // Read matching hap with a 2-base deletion.
  const std::string read = "AAAACCCCGGTTTTAAAA";
  // Same read against a haplotype without the deletion context would need
  // many mismatches.
  const std::string qual(read.size(), 'I');
  const double with_gap = hmm.log10_likelihood(read, qual, hap);
  EXPECT_GT(with_gap, -10.0);
}

TEST(PairHmm, LikelihoodIsLogProbability) {
  PairHmm hmm;
  const std::string hap = "ACGTACGTACGT";
  const std::string read = "ACGT";
  const double ll = hmm.log10_likelihood(read, "IIII", hap);
  EXPECT_LE(ll, 0.0);
  EXPECT_GT(ll, -20.0);
}

TEST(PairHmm, MismatchedLengthsThrow) {
  PairHmm hmm;
  EXPECT_THROW(hmm.log10_likelihood("ACGT", "II", "ACGT"),
               std::invalid_argument);
}

TEST(PairHmm, LongReadNoUnderflow) {
  PairHmm hmm;
  const std::string hap(400, 'A');
  const std::string read(250, 'A');
  const std::string qual(250, 'I');
  const double ll = hmm.log10_likelihood(read, qual, hap);
  EXPECT_TRUE(std::isfinite(ll));
  EXPECT_GT(ll, -100.0);
}

// --- pair-HMM differential wall ----------------------------------------------
//
// The batched kernel must reproduce detail::log10_likelihood_reference bit
// for bit (memcmp of the doubles) at every dispatch level this CPU runs.
// Inputs are drawn under GPF_FUZZ_SEED, which CI sweeps under ASan with
// dispatch uncapped and capped by GPF_SIMD_MAX.

using tests::runnable_levels;

std::uint64_t hmm_fuzz_seed() {
  return engine::seed_from_env("GPF_FUZZ_SEED", 42);
}

struct HmmCase {
  std::vector<std::string> reads;
  std::vector<std::string> quals;
  std::string haplotype;
};

/// Checks every runnable level, the dispatched batch call and the one-pair
/// call against the reference; returns the reference likelihoods.
std::vector<double> expect_matches_reference(
    const HmmCase& c, const PairHmmOptions& options = {}) {
  const std::vector<std::string_view> reads(c.reads.begin(), c.reads.end());
  const std::vector<std::string_view> quals(c.quals.begin(), c.quals.end());
  std::vector<double> want(reads.size());
  for (std::size_t r = 0; r < reads.size(); ++r) {
    want[r] = detail::log10_likelihood_reference(options, reads[r], quals[r],
                                                 c.haplotype);
  }
  auto expect_same = [&](const std::vector<double>& got, const char* what) {
    for (std::size_t r = 0; r < reads.size(); ++r) {
      EXPECT_EQ(std::memcmp(&got[r], &want[r], sizeof(double)), 0)
          << what << " read " << r << "/" << reads.size() << ": got "
          << got[r] << " want " << want[r] << " (seed " << hmm_fuzz_seed()
          << ", read '" << reads[r] << "', hap '" << c.haplotype << "')";
    }
  };
  std::vector<double> got(reads.size(), 1.0);
  for (const simd::Level level : runnable_levels()) {
    std::fill(got.begin(), got.end(), 1.0);
    detail::log10_likelihoods_at(level, options, reads, quals, c.haplotype,
                                 got);
    expect_same(got, simd::level_name(level));
  }
  const PairHmm hmm(options);
  std::fill(got.begin(), got.end(), 1.0);
  hmm.log10_likelihoods(reads, quals, c.haplotype, got);
  expect_same(got, "dispatched");
  for (std::size_t r = 0; r < reads.size(); ++r) {
    got[r] = hmm.log10_likelihood(reads[r], quals[r], c.haplotype);
  }
  expect_same(got, "one-pair");
  return want;
}

std::string random_bases(Rng& rng, std::size_t n, const char* alphabet) {
  const std::size_t k = std::strlen(alphabet);
  std::string s(n, 'A');
  for (auto& ch : s) ch = alphabet[rng.below(k)];
  return s;
}

/// A read drawn from the haplotype with a few substitutions, so likelihoods
/// span the realistic range rather than all sitting near the floor.
std::string read_from(Rng& rng, const std::string& hap, std::size_t len) {
  std::string r = len <= hap.size()
                      ? hap.substr(rng.below(hap.size() - len + 1), len)
                      : random_bases(rng, len, "ACGT");
  for (std::size_t k = rng.below(4); k > 0 && !r.empty(); --k) {
    r[rng.below(r.size())] = "ACGTN"[rng.below(5)];
  }
  return r;
}

/// Qualities '!'..'J' (Phred 0..41; Phred 0 clamps to 1 as in the reference).
std::string random_quals(Rng& rng, std::size_t n) {
  std::string q(n, 'I');
  for (auto& ch : q) ch = static_cast<char>('!' + rng.below('J' - '!' + 1));
  return q;
}

TEST(PairHmmDifferential, BatchSizesOneToSeventeen) {
  // Up to two full 8-lane vectors plus a remainder.
  Rng rng(hmm_fuzz_seed());
  for (std::size_t batch = 1; batch <= 17; ++batch) {
    for (int trial = 0; trial < 4; ++trial) {
      HmmCase c;
      c.haplotype = random_bases(rng, 20 + rng.below(120), "ACGT");
      const std::size_t len = 1 + rng.below(60);
      for (std::size_t r = 0; r < batch; ++r) {
        c.reads.push_back(read_from(rng, c.haplotype, len));
        c.quals.push_back(random_quals(rng, len));
      }
      expect_matches_reference(c);
    }
  }
}

TEST(PairHmmDifferential, UnequalReadLengths) {
  Rng rng(hmm_fuzz_seed() + 1);
  for (int trial = 0; trial < 12; ++trial) {
    HmmCase c;
    c.haplotype = random_bases(rng, 50 + rng.below(200), "ACGT");
    const std::size_t n = 1 + rng.below(24);
    for (std::size_t r = 0; r < n; ++r) {
      // Few distinct lengths so groups of several lanes form, with tails.
      const std::size_t len = 30 + 7 * rng.below(5) + rng.below(2);
      c.reads.push_back(read_from(rng, c.haplotype, len));
      c.quals.push_back(random_quals(rng, len));
    }
    expect_matches_reference(c);
  }
}

TEST(PairHmmDifferential, NBasesInReadAndHaplotype) {
  Rng rng(hmm_fuzz_seed() + 2);
  for (int trial = 0; trial < 12; ++trial) {
    HmmCase c;
    c.haplotype = random_bases(rng, 40 + rng.below(80), "ACGTNACGT");
    for (std::size_t r = 0; r < 1 + rng.below(9); ++r) {
      const std::size_t len = 10 + rng.below(3);
      c.reads.push_back(random_bases(rng, len, "ACGTNN"));
      c.quals.push_back(random_quals(rng, len));
    }
    c.reads.push_back(std::string(c.reads[0].size(), 'N'));
    c.quals.push_back(random_quals(rng, c.reads.back().size()));
    expect_matches_reference(c);
  }
}

TEST(PairHmmDifferential, NonAcgtnHaplotypeBytes) {
  // Lower case, punctuation, NUL and high bytes: each is its own emission
  // code, and a read carrying the same byte must still score a match.
  const std::string odd = std::string("acgtnX-*.") + '\0' + '\x80' + '\xff';
  Rng rng(hmm_fuzz_seed() + 3);
  for (int trial = 0; trial < 12; ++trial) {
    HmmCase c;
    c.haplotype = random_bases(rng, 30 + rng.below(60), "ACGT");
    for (std::size_t k = 0; k < 1 + rng.below(12); ++k) {
      c.haplotype[rng.below(c.haplotype.size())] = odd[rng.below(odd.size())];
    }
    for (std::size_t r = 0; r < 1 + rng.below(9); ++r) {
      std::string read = read_from(rng, c.haplotype, 20);
      if (rng.below(2) == 0) {
        read[rng.below(read.size())] = odd[rng.below(odd.size())];
      }
      c.quals.push_back(random_quals(rng, read.size()));
      c.reads.push_back(std::move(read));
    }
    expect_matches_reference(c);
  }
  // Every byte value, in the haplotype and in the read.
  HmmCase all;
  for (int b = 0; b < 256; ++b) all.haplotype.push_back(static_cast<char>(b));
  for (int r = 0; r < 5; ++r) {
    all.reads.push_back(all.haplotype.substr(50 * r, 40));
    all.quals.push_back(random_quals(rng, 40));
  }
  expect_matches_reference(all);
}

TEST(PairHmmDifferential, EveryQualityByte) {
  // '!'..'J' is the Illumina range; the table must also reproduce the
  // reference for every other byte, including the ones a signed char
  // makes negative.
  Rng rng(hmm_fuzz_seed() + 4);
  HmmCase c;
  c.haplotype = random_bases(rng, 120, "ACGT");
  for (int first = 0; first < 256; first += 32) {
    std::string read = read_from(rng, c.haplotype, 32);
    std::string qual(32, 'I');
    for (int k = 0; k < 32; ++k) qual[k] = static_cast<char>(first + k);
    c.reads.push_back(std::move(read));
    c.quals.push_back(std::move(qual));
  }
  std::string illumina;
  for (char q = '!'; q <= 'J'; ++q) illumina.push_back(q);
  c.reads.push_back(read_from(rng, c.haplotype, illumina.size()));
  c.quals.push_back(illumina);
  expect_matches_reference(c);
}

TEST(PairHmmDifferential, EmptyReadOrHaplotype) {
  HmmCase c;
  c.haplotype = "ACGTACGTAC";
  c.reads = {"", "ACG", "", "ACGTA", ""};
  c.quals = {"", "III", "", "IIIII", ""};
  const auto want = expect_matches_reference(c);
  EXPECT_EQ(want[0], -300.0);
  EXPECT_GT(want[1], -300.0);
  c.haplotype.clear();
  for (const double ll : expect_matches_reference(c)) EXPECT_EQ(ll, -300.0);
  c.reads.clear();
  c.quals.clear();
  EXPECT_TRUE(expect_matches_reference(c).empty());
}

TEST(PairHmmDifferential, LongMismatchReadTriggersRowScaling) {
  // Q40 mismatches cost ~10^-4.5 per row and the insert-only path ~10^-1,
  // so a 300-base mostly-mismatch read falls below the 1e-200 scaling
  // threshold; lanes of one batch scale on different rows.
  Rng rng(hmm_fuzz_seed() + 5);
  HmmCase c;
  c.haplotype = std::string(350, 'C');
  for (int r = 0; r < 7; ++r) {
    std::string read(300, 'A');
    for (int k = 0; k < r * 20; ++k) read[rng.below(read.size())] = 'C';
    c.reads.push_back(std::move(read));
    c.quals.push_back(r % 2 == 0 ? std::string(300, 'I')
                                 : random_quals(rng, 300));
  }
  for (const double ll : expect_matches_reference(c)) {
    EXPECT_LT(ll, -200.0);  // below the scaling threshold
    EXPECT_NE(ll, -300.0);  // scaled, not the underflow exit
  }
}

TEST(PairHmmDifferential, RowUnderflowToZero) {
  // gap_extend = 1 gives zero match-from-gap mass and gap_open = 0.5 zero
  // match-to-match mass, so the first row is exactly zero and every read
  // takes the reference's -300 underflow exit.
  PairHmmOptions options;
  options.gap_open = 0.5;
  options.gap_extend = 1.0;
  Rng rng(hmm_fuzz_seed() + 6);
  HmmCase c;
  c.haplotype = random_bases(rng, 64, "ACGT");
  for (int r = 0; r < 6; ++r) {
    c.reads.push_back(read_from(rng, c.haplotype, 24));
    c.quals.push_back(random_quals(rng, 24));
  }
  for (const double ll : expect_matches_reference(c, options)) {
    EXPECT_EQ(ll, -300.0);
  }
}

TEST(PairHmmDifferential, RegionShapedMatrix) {
  // 100-base reads against 300-420 base haplotypes, the caller's shape.
  Rng rng(hmm_fuzz_seed() + 7);
  const std::string ref = random_bases(rng, 420, "ACGT");
  HmmCase c;
  for (int r = 0; r < 37; ++r) {
    c.reads.push_back(read_from(rng, ref, 100));
    c.quals.push_back(random_quals(rng, 100));
  }
  for (int h = 0; h < 3; ++h) {
    c.haplotype = ref.substr(0, 300 + 60 * h);
    c.haplotype[150] = "ACG"[h];
    expect_matches_reference(c);
  }
}

TEST(PairHmmDifferential, MismatchedSizesThrow) {
  const PairHmm hmm;
  const std::vector<std::string_view> reads = {"ACGT", "ACGT"};
  const std::vector<std::string_view> quals = {"IIII", "II"};
  std::vector<double> out(2);
  EXPECT_THROW(hmm.log10_likelihoods(reads, quals, "ACGTACGT", out),
               std::invalid_argument);
  std::vector<double> short_out(1);
  EXPECT_THROW(hmm.log10_likelihoods(reads, std::span(quals).first(1),
                                     "ACGTACGT", short_out),
               std::invalid_argument);
}

// --- genotyper ------------------------------------------------------------------

TEST(Genotyper, CallsHetSnp) {
  const std::string ref_window = "AAAACCCCGGGGTTTT";
  std::string alt = ref_window;
  alt[8] = 'A';
  std::vector<std::string> haps = {ref_window, alt};
  // 20 reads: half support ref, half support alt.
  LikelihoodMatrix likelihoods;
  for (int i = 0; i < 20; ++i) {
    const bool alt_read = i % 2 == 0;
    likelihoods.push_back({alt_read ? -8.0 : -0.5, alt_read ? -0.5 : -8.0});
  }
  const auto calls = genotype_region(haps, likelihoods, 0, 1000);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].record.pos, 1008);
  EXPECT_EQ(calls[0].record.ref, "G");
  EXPECT_EQ(calls[0].record.alt, "A");
  EXPECT_EQ(calls[0].record.genotype, Genotype::kHet);
  EXPECT_GT(calls[0].record.qual, 10.0);
}

TEST(Genotyper, CallsHomAlt) {
  const std::string ref_window = "AAAACCCCGGGGTTTT";
  std::string alt = ref_window;
  alt[8] = 'A';
  std::vector<std::string> haps = {ref_window, alt};
  LikelihoodMatrix likelihoods;
  for (int i = 0; i < 20; ++i) likelihoods.push_back({-8.0, -0.5});
  const auto calls = genotype_region(haps, likelihoods, 0, 0);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].record.genotype, Genotype::kHomAlt);
}

TEST(Genotyper, HomRefEmitsNothing) {
  const std::string ref_window = "AAAACCCCGGGGTTTT";
  std::string alt = ref_window;
  alt[8] = 'A';
  std::vector<std::string> haps = {ref_window, alt};
  LikelihoodMatrix likelihoods;
  for (int i = 0; i < 20; ++i) likelihoods.push_back({-0.5, -9.0});
  EXPECT_TRUE(genotype_region(haps, likelihoods, 0, 0).empty());
}

TEST(Genotyper, IndelRepresentation) {
  const std::string ref_window = "AAAACCCCGGGGTTTTAAAA";
  // 3-base deletion of positions 8..11.
  const std::string alt = ref_window.substr(0, 8) + ref_window.substr(11);
  std::vector<std::string> haps = {ref_window, alt};
  LikelihoodMatrix likelihoods;
  for (int i = 0; i < 20; ++i) likelihoods.push_back({-8.0, -0.5});
  const auto calls = genotype_region(haps, likelihoods, 0, 100);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_TRUE(calls[0].record.is_deletion());
  EXPECT_EQ(calls[0].record.ref.size(), calls[0].record.alt.size() + 3);
}

// --- end-to-end ------------------------------------------------------------------

TEST(HaplotypeCallerE2E, RecoversPlantedVariants) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(200'000, 197));
  simdata::VariantSpec vspec;
  vspec.snp_rate = 0.0008;
  vspec.indel_rate = 0.00008;
  vspec.seed = 199;
  const auto truth = simdata::spawn_variants(ref, vspec);
  ASSERT_GT(truth.size(), 50u);
  const simdata::Donor donor(ref, truth);

  simdata::ReadSimSpec rspec;
  rspec.coverage = 30.0;
  rspec.duplicate_fraction = 0.0;
  rspec.seed = 211;
  const auto sample = simdata::simulate_reads(ref, donor, rspec);

  const align::FmIndex index(ref);
  const align::ReadAligner aligner(index);
  std::vector<SamRecord> records;
  records.reserve(sample.pairs.size() * 2);
  for (const auto& pair : sample.pairs) {
    auto [r1, r2] = aligner.align_pair(pair);
    if (!r1.is_unmapped()) records.push_back(std::move(r1));
    if (!r2.is_unmapped()) records.push_back(std::move(r2));
  }
  cleaner::coordinate_sort(records);

  CallStats stats;
  const auto calls = call_variants(records, ref, {}, &stats);
  EXPECT_GT(stats.regions, 10u);
  ASSERT_FALSE(calls.empty());

  // Recall on SNPs (indel representation can shift; measure separately
  // with positional slack).
  std::size_t snp_truth = 0, snp_hit = 0;
  for (const auto& t : truth) {
    if (!t.is_snp()) continue;
    ++snp_truth;
    for (const auto& c : calls) {
      if (c.contig_id == t.contig_id && c.pos == t.pos && c.ref == t.ref &&
          c.alt == t.alt) {
        ++snp_hit;
        break;
      }
    }
  }
  const double recall =
      static_cast<double>(snp_hit) / static_cast<double>(snp_truth);
  EXPECT_GT(recall, 0.80) << snp_hit << "/" << snp_truth;

  // Precision: most emitted SNP calls should be in the truth set.
  std::size_t call_snps = 0, call_correct = 0;
  for (const auto& c : calls) {
    if (!c.is_snp()) continue;
    ++call_snps;
    for (const auto& t : truth) {
      if (c.contig_id == t.contig_id && c.pos == t.pos && c.ref == t.ref &&
          c.alt == t.alt) {
        ++call_correct;
        break;
      }
    }
  }
  ASSERT_GT(call_snps, 0u);
  const double precision =
      static_cast<double>(call_correct) / static_cast<double>(call_snps);
  EXPECT_GT(precision, 0.80) << call_correct << "/" << call_snps;
}

TEST(HaplotypeCallerE2E, VcfDigestGolden) {
  // A fixed simulated workload whose VCF digest was recorded with the
  // original one-pair scalar pair-HMM.  Every kernel and dispatch level
  // must reproduce it bit for bit (CI runs this suite uncapped and with
  // GPF_SIMD_MAX=avx2 and =scalar).
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(60'000, 307));
  simdata::VariantSpec vspec;
  vspec.snp_rate = 0.001;
  vspec.indel_rate = 0.0003;
  vspec.seed = 311;
  const auto truth = simdata::spawn_variants(ref, vspec);
  const simdata::Donor donor(ref, truth);
  simdata::ReadSimSpec rspec;
  rspec.coverage = 20.0;
  rspec.seed = 313;
  const auto sample = simdata::simulate_reads(ref, donor, rspec);

  const align::FmIndex index(ref);
  const align::ReadAligner aligner(index);
  std::vector<SamRecord> records;
  for (const auto& pair : sample.pairs) {
    auto [r1, r2] = aligner.align_pair(pair);
    if (!r1.is_unmapped()) records.push_back(std::move(r1));
    if (!r2.is_unmapped()) records.push_back(std::move(r2));
  }
  cleaner::coordinate_sort(records);
  const auto calls = call_variants(records, ref, {});
  ASSERT_GT(calls.size(), 30u);

  VcfHeader header;
  for (const auto& c : ref.contigs()) {
    header.contigs.push_back(
        {c.name, static_cast<std::int64_t>(c.sequence.size())});
  }
  const std::string vcf = write_vcf(header, calls);
  const std::uint64_t digest = fnv1a64(std::span(
      reinterpret_cast<const std::uint8_t*>(vcf.data()), vcf.size()));
  EXPECT_EQ(digest, 0xc87757e7e8a42bfeULL)
      << calls.size() << " calls, " << vcf.size() << " bytes, level "
      << simd::level_name(simd::active_level()) << ", digest 0x" << std::hex
      << digest;
}

// --- gVCF -----------------------------------------------------------------

TEST(Gvcf, BlocksCoverAlignedSpans) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(5'000, 251));
  std::vector<SamRecord> records = {read_at(ref, 100, 80),
                                    read_at(ref, 150, 80),
                                    read_at(ref, 400, 80)};
  const auto blocks = reference_blocks(records, {}, ref);
  ASSERT_FALSE(blocks.empty());
  // Coverage exists exactly over [100,230) and [400,480); no block may
  // extend beyond, and both spans must be covered.
  std::int64_t covered = 0;
  for (const auto& b : blocks) {
    EXPECT_GE(b.start, 100);
    EXPECT_LE(b.end, 480);
    EXPECT_TRUE(b.end <= 230 || b.start >= 400) << b.start << " " << b.end;
    EXPECT_GE(b.min_depth, 1);
    covered += b.end - b.start;
  }
  EXPECT_EQ(covered, 130 + 80);
}

TEST(Gvcf, VariantPositionsExcluded) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(2'000, 257));
  std::vector<SamRecord> records = {read_at(ref, 100, 100)};
  std::vector<VcfRecord> variants = {
      {0, 150, ".", "AC", "A", 50.0, Genotype::kHet}};
  const auto blocks = reference_blocks(records, variants, ref);
  for (const auto& b : blocks) {
    // The variant REF span [150,152) is never inside a block.
    EXPECT_TRUE(b.end <= 150 || b.start >= 152) << b.start << " " << b.end;
  }
  std::int64_t covered = 0;
  for (const auto& b : blocks) covered += b.end - b.start;
  EXPECT_EQ(covered, 100 - 2);
}

TEST(Gvcf, DepthChangesSplitBlocksByGqBand) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(2'000, 263));
  // Depth 1 over [100,180), depth ramps to 8 over [180,260):
  std::vector<SamRecord> records;
  records.push_back(read_at(ref, 100, 160));
  for (int i = 0; i < 7; ++i) records.push_back(read_at(ref, 180, 80));
  const auto blocks = reference_blocks(records, {}, ref);
  ASSERT_GE(blocks.size(), 2u);
  // First block: GQ band below 20 (depth 1 -> GQ 3); a later block has
  // banded GQ >= 20 (depth 8 -> GQ 24).
  EXPECT_LT(blocks.front().gq, 20);
  bool saw_high = false;
  for (const auto& b : blocks) {
    if (b.gq >= 20) saw_high = true;
  }
  EXPECT_TRUE(saw_high);
}

TEST(Gvcf, DuplicatesAndUnmappedIgnored) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(2'000, 269));
  auto dup = read_at(ref, 100, 80);
  dup.flag |= SamFlags::kDuplicate;
  SamRecord unmapped;
  unmapped.qname = "u";
  unmapped.flag = SamFlags::kUnmapped;
  const auto blocks =
      reference_blocks(std::vector<SamRecord>{dup, unmapped}, {}, ref);
  EXPECT_TRUE(blocks.empty());
}

TEST(Gvcf, WriteGvcfInterleavesSorted) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(2'000, 271));
  VcfHeader header;
  header.contigs = {{"chr1", 2'000}};
  std::vector<VcfRecord> variants = {
      {0, 150, ".", "A", "G", 60.0, Genotype::kHet}};
  std::vector<GvcfBlock> blocks = {{0, 100, 150, 5, 15},
                                   {0, 151, 200, 5, 15}};
  const std::string text = write_gvcf(header, variants, blocks, ref);
  const auto pos_block1 = text.find("END=150");
  const auto pos_variant = text.find("\t151\t.\tA\tG");
  const auto pos_block2 = text.find("END=200");
  ASSERT_NE(pos_block1, std::string::npos);
  ASSERT_NE(pos_variant, std::string::npos);
  ASSERT_NE(pos_block2, std::string::npos);
  EXPECT_LT(pos_block1, pos_variant);
  EXPECT_LT(pos_variant, pos_block2);
  EXPECT_NE(text.find("<NON_REF>"), std::string::npos);
}


TEST(HaplotypeCallerE2E, TargetIntervalsRestrictCalling) {
  const Reference ref = simdata::generate_reference(
      simdata::ReferenceSpec::single(60'000, 281));
  simdata::VariantSpec vspec;
  vspec.snp_rate = 0.001;
  vspec.indel_rate = 0.0;
  vspec.seed = 283;
  const auto truth = simdata::spawn_variants(ref, vspec);
  const simdata::Donor donor(ref, truth);
  simdata::ReadSimSpec rspec;
  rspec.coverage = 25.0;
  rspec.seed = 285;
  const auto sample = simdata::simulate_reads(ref, donor, rspec);

  const align::FmIndex index(ref);
  const align::ReadAligner aligner(index);
  std::vector<SamRecord> records;
  for (const auto& pair : sample.pairs) {
    auto [r1, r2] = aligner.align_pair(pair);
    if (!r1.is_unmapped()) records.push_back(std::move(r1));
    if (!r2.is_unmapped()) records.push_back(std::move(r2));
  }
  cleaner::coordinate_sort(records);

  const IntervalSet targets(
      std::vector<BedInterval>{{0, 10'000, 20'000, "panel"}});
  CallerOptions options;
  options.targets = &targets;
  const auto calls = call_variants(records, ref, options);
  ASSERT_FALSE(calls.empty());
  for (const auto& c : calls) {
    EXPECT_TRUE(targets.overlaps(c.contig_id, c.pos, c.pos + 1))
        << "off-target call at " << c.pos;
  }
  // Untargeted calling finds strictly more.
  const auto all_calls = call_variants(records, ref, {});
  EXPECT_GT(all_calls.size(), calls.size());
}

}  // namespace
}  // namespace gpf::caller
