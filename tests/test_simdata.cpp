// Tests for the synthetic data generators: reference, variants, donor
// haplotypes, quality model, read simulator.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "simdata/quality_model.hpp"
#include "simdata/read_sim.hpp"
#include "simdata/reference_gen.hpp"
#include "simdata/variant_gen.hpp"

namespace gpf::simdata {
namespace {

TEST(ReferenceGen, RespectsContigSpec) {
  ReferenceSpec spec;
  spec.contigs = {{"c1", 10000}, {"c2", 5000}};
  const Reference ref = generate_reference(spec);
  ASSERT_EQ(ref.contig_count(), 2u);
  EXPECT_EQ(ref.contig(0).name, "c1");
  EXPECT_EQ(ref.contig(0).sequence.size(), 10000u);
  EXPECT_EQ(ref.contig(1).sequence.size(), 5000u);
}

TEST(ReferenceGen, Deterministic) {
  const auto spec = ReferenceSpec::single(5000, 9);
  EXPECT_EQ(generate_reference(spec).contig(0).sequence,
            generate_reference(spec).contig(0).sequence);
}

TEST(ReferenceGen, GcContentApproximatelyRespected) {
  auto spec = ReferenceSpec::single(200000, 5);
  spec.gc_content = 0.41;
  spec.repeat_rate = 0.0;  // repeats skew composition
  spec.gap_rate = 0.0;
  const Reference ref = generate_reference(spec);
  std::size_t gc = 0;
  for (const char c : ref.contig(0).sequence) {
    if (c == 'G' || c == 'C') ++gc;
  }
  const double frac = static_cast<double>(gc) / 200000.0;
  EXPECT_NEAR(frac, 0.41, 0.02);
}

TEST(ReferenceGen, GenomePresetDecreasingSizes) {
  const auto spec = ReferenceSpec::genome(1'000'000, 5);
  ASSERT_EQ(spec.contigs.size(), 5u);
  for (std::size_t i = 1; i < spec.contigs.size(); ++i) {
    EXPECT_GE(spec.contigs[i - 1].second, spec.contigs[i].second);
  }
}

TEST(ReferenceGen, OnlyValidBases) {
  const Reference ref =
      generate_reference(ReferenceSpec::single(50000, 17));
  for (const char c : ref.contig(0).sequence) {
    EXPECT_TRUE(c == 'A' || c == 'C' || c == 'G' || c == 'T' || c == 'N')
        << c;
  }
}

TEST(VariantGen, RatesApproximatelyRespected) {
  const Reference ref =
      generate_reference(ReferenceSpec::single(500'000, 3));
  VariantSpec spec;
  spec.snp_rate = 0.002;
  spec.indel_rate = 0.0002;
  const auto truth = spawn_variants(ref, spec);
  std::size_t snps = 0, indels = 0;
  for (const auto& v : truth) {
    if (v.is_snp()) {
      ++snps;
    } else {
      ++indels;
    }
  }
  EXPECT_NEAR(static_cast<double>(snps) / 500'000.0, 0.002, 0.0005);
  EXPECT_NEAR(static_cast<double>(indels) / 500'000.0, 0.0002, 0.0001);
}

TEST(VariantGen, SortedAndNonOverlapping) {
  const Reference ref =
      generate_reference(ReferenceSpec::single(200'000, 7));
  const auto truth = spawn_variants(ref, {});
  for (std::size_t i = 1; i < truth.size(); ++i) {
    const auto& prev = truth[i - 1];
    const auto& cur = truth[i];
    if (prev.contig_id == cur.contig_id) {
      EXPECT_GE(cur.pos,
                prev.pos + static_cast<std::int64_t>(prev.ref.size()));
    }
  }
}

TEST(VariantGen, RefFieldMatchesReference) {
  const Reference ref =
      generate_reference(ReferenceSpec::single(100'000, 21));
  const auto truth = spawn_variants(ref, {});
  ASSERT_FALSE(truth.empty());
  for (const auto& v : truth) {
    EXPECT_EQ(ref.slice(v.contig_id, v.pos,
                        static_cast<std::int64_t>(v.ref.size())),
              v.ref);
  }
}

TEST(Donor, HomAltSnpAppearsInBothHaplotypes) {
  Reference ref(std::vector<FastaContig>{{"c", "AAAAAAAAAA"}});
  VcfRecord snp{0, 4, ".", "A", "G", 50.0, Genotype::kHomAlt};
  const Donor donor(ref, {snp});
  EXPECT_EQ(donor.haplotype(0, 0)[4], 'G');
  EXPECT_EQ(donor.haplotype(0, 1)[4], 'G');
}

TEST(Donor, HetSnpOnlyInHaplotypeZero) {
  Reference ref(std::vector<FastaContig>{{"c", "AAAAAAAAAA"}});
  VcfRecord snp{0, 4, ".", "A", "G", 50.0, Genotype::kHet};
  const Donor donor(ref, {snp});
  EXPECT_EQ(donor.haplotype(0, 0)[4], 'G');
  EXPECT_EQ(donor.haplotype(0, 1)[4], 'A');
}

TEST(Donor, InsertionShiftsCoordinates) {
  Reference ref(std::vector<FastaContig>{{"c", "AAAAAAAAAA"}});
  VcfRecord ins{0, 3, ".", "A", "ATT", 50.0, Genotype::kHomAlt};
  const Donor donor(ref, {ins});
  EXPECT_EQ(donor.haplotype(0, 0).size(), 12u);
  // Donor position 10 maps back to reference position 8.
  EXPECT_EQ(donor.to_reference(0, 0, 10), 8);
  // Positions before the indel are unshifted.
  EXPECT_EQ(donor.to_reference(0, 0, 2), 2);
}

TEST(Donor, DeletionShiftsCoordinates) {
  Reference ref(std::vector<FastaContig>{{"c", "AAAAACCCCC"}});
  VcfRecord del{0, 2, ".", "AAA", "A", 50.0, Genotype::kHomAlt};
  const Donor donor(ref, {del});
  EXPECT_EQ(donor.haplotype(0, 0).size(), 8u);
  EXPECT_EQ(donor.to_reference(0, 0, 5), 7);
}

TEST(QualityModel, ScoresWithinConfiguredRange) {
  Rng rng(3);
  const auto profile = QualityProfile::srr622461();
  for (int i = 0; i < 50; ++i) {
    const std::string q = profile.sample_read(rng, 100);
    ASSERT_EQ(q.size(), 100u);
    for (const char c : q) {
      ASSERT_GE(c, profile.min_quality);
      ASSERT_LE(c, profile.max_quality);
    }
  }
}

TEST(QualityModel, Fig5DistributionShape) {
  // Paper Fig 5: raw scores concentrated in a high band; adjacent deltas
  // overwhelmingly within [-10, 10] with a spike at 0.
  const auto dist =
      collect_distributions(QualityProfile::srr622461(), 2000, 100, 99);
  EXPECT_GT(dist.scores.mean(), 60.0);
  std::uint64_t near_zero = 0;
  for (int d = -10; d <= 10; ++d) near_zero += dist.deltas.count(d);
  EXPECT_GT(static_cast<double>(near_zero) /
                static_cast<double>(dist.deltas.total()),
            0.9);
  EXPECT_GT(dist.deltas.fraction(0), 0.15);
}

TEST(QualityModel, ProfilesDiffer) {
  const auto a =
      collect_distributions(QualityProfile::srr622461(), 500, 100, 1);
  const auto b =
      collect_distributions(QualityProfile::srr504516(), 500, 100, 1);
  EXPECT_GT(a.scores.mean(), b.scores.mean());
}

TEST(ReadSim, PairCountMatchesCoverage) {
  const Reference ref =
      generate_reference(ReferenceSpec::single(100'000, 11));
  const Donor donor(ref, {});
  ReadSimSpec spec;
  spec.coverage = 10.0;
  spec.read_length = 100;
  spec.duplicate_fraction = 0.0;
  const auto sample = simulate_reads(ref, donor, spec);
  EXPECT_NEAR(static_cast<double>(sample.pairs.size()), 5000.0, 50.0);
}

TEST(ReadSim, ReadsMatchDonorSequence) {
  const Reference ref =
      generate_reference(ReferenceSpec::single(50'000, 13));
  const Donor donor(ref, {});
  ReadSimSpec spec;
  spec.coverage = 2.0;
  // Max quality = tiny error rate, so reads should match the donor nearly
  // everywhere.
  spec.quality.start_quality = 74.0;
  spec.quality.dropout_rate = 0.0;
  spec.quality.walk_sigma = 0.0;
  spec.quality.decay_per_cycle = 0.0;
  const auto sample = simulate_reads(ref, donor, spec);
  ASSERT_FALSE(sample.pairs.empty());
  // Parse the truth position from the read name and compare to the
  // reference.
  int checked = 0;
  for (const auto& pair : sample.pairs) {
    const auto& name = pair.first.name;
    const auto p1 = name.find(':');
    const auto p2 = name.find(':', p1 + 1);
    const auto p3 = name.find(':', p2 + 1);
    const std::int64_t pos =
        std::stoll(name.substr(p2 + 1, p3 - p2 - 1));
    const std::string_view expected = ref.slice(0, pos, 100);
    int mismatches = 0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (pair.first.sequence[i] != expected[i]) ++mismatches;
    }
    EXPECT_LT(mismatches, 10);
    if (++checked > 20) break;
  }
}

TEST(ReadSim, DuplicatesApproximatelyAtConfiguredRate) {
  const Reference ref =
      generate_reference(ReferenceSpec::single(100'000, 15));
  const Donor donor(ref, {});
  ReadSimSpec spec;
  spec.coverage = 10.0;
  spec.duplicate_fraction = 0.10;
  const auto sample = simulate_reads(ref, donor, spec);
  const double rate = static_cast<double>(sample.duplicate_pairs) /
                      static_cast<double>(sample.pairs.size());
  EXPECT_NEAR(rate, 0.10, 0.02);
}

TEST(ReadSim, HotspotsSkewCoverage) {
  const Reference ref =
      generate_reference(ReferenceSpec::single(500'000, 19));
  const Donor donor(ref, {});
  ReadSimSpec uniform;
  uniform.coverage = 5.0;
  uniform.seed = 7;
  ReadSimSpec skewed = uniform;
  skewed.hotspot_fraction = 0.02;
  skewed.hotspot_multiplier = 50.0;

  auto depth_histogram = [&](const ReadSimSpec& spec) {
    const auto sample = simulate_reads(ref, donor, spec);
    std::vector<std::size_t> counts(10, 0);  // 50kb buckets
    for (const auto& pair : sample.pairs) {
      const auto& name = pair.first.name;
      const auto p1 = name.find(':');
      const auto p2 = name.find(':', p1 + 1);
      const auto p3 = name.find(':', p2 + 1);
      const std::int64_t pos = std::stoll(name.substr(p2 + 1, p3 - p2 - 1));
      ++counts[std::min<std::size_t>(9, static_cast<std::size_t>(pos / 50'000))];
    }
    return counts;
  };
  const auto flat = depth_histogram(uniform);
  const auto hot = depth_histogram(skewed);
  auto imbalance = [](const std::vector<std::size_t>& counts) {
    const std::size_t max = *std::max_element(counts.begin(), counts.end());
    std::size_t total = 0;
    for (const auto c : counts) total += c;
    return static_cast<double>(max) * counts.size() /
           static_cast<double>(total);
  };
  EXPECT_GT(imbalance(hot), imbalance(flat) * 1.5);
}

TEST(ReadSim, WorkloadBuilderProducesConsistentPieces) {
  ReadSimSpec spec;
  spec.coverage = 3.0;
  const Workload w = make_workload(100'000, 2, spec);
  EXPECT_EQ(w.reference.contig_count(), 2u);
  EXPECT_FALSE(w.truth.empty());
  EXPECT_FALSE(w.sample.pairs.empty());
}


TEST(QualityModel, BinnedProfileUsesOnlyBinValues) {
  Rng rng(307);
  const auto profile = QualityProfile::novaseq_binned();
  const std::string q = profile.sample_read(rng, 200);
  std::set<char> distinct(q.begin(), q.end());
  EXPECT_LE(distinct.size(), 8u);
  for (const char c : distinct) {
    EXPECT_EQ(c, QualityProfile::bin_quality(c));  // bins are fixed points
  }
}

TEST(QualityModel, BinQualityMapsToNearestRepresentative) {
  EXPECT_EQ(QualityProfile::bin_quality(static_cast<char>(33 + 2)), 33 + 2);
  EXPECT_EQ(QualityProfile::bin_quality(static_cast<char>(33 + 13)),
            33 + 12);
  EXPECT_EQ(QualityProfile::bin_quality(static_cast<char>(33 + 40)),
            33 + 41);
  EXPECT_EQ(QualityProfile::bin_quality(static_cast<char>(33 + 90)),
            33 + 45);
}

TEST(QualityModel, BinnedQualitiesHaveFewerDeltaSymbols) {
  const auto raw =
      collect_distributions(QualityProfile::srr622461(), 500, 100, 7);
  const auto binned =
      collect_distributions(QualityProfile::novaseq_binned(), 500, 100, 7);
  EXPECT_LT(binned.deltas.buckets().size(), raw.deltas.buckets().size());
}


TEST(ReadSim, CaptureTargetsConcentrateCoverage) {
  const Reference ref =
      generate_reference(ReferenceSpec::single(200'000, 521));
  const Donor donor(ref, {});
  ReadSimSpec spec;
  spec.coverage = 6.0;
  spec.seed = 523;
  spec.targets = {{0, 50'000, 60'000, "exon1"}, {0, 120'000, 130'000, "exon2"}};
  spec.on_target_fraction = 0.95;
  const auto sample = simulate_reads(ref, donor, spec);
  ASSERT_FALSE(sample.pairs.empty());
  const IntervalSet targets(spec.targets);
  std::size_t on = 0;
  for (const auto& pair : sample.pairs) {
    const auto& name = pair.first.name;
    const auto p1 = name.find(':');
    const auto p2 = name.find(':', p1 + 1);
    const auto p3 = name.find(':', p2 + 1);
    const std::int64_t pos = std::stoll(name.substr(p2 + 1, p3 - p2 - 1));
    if (targets.overlaps(0, pos, pos + 350)) ++on;
  }
  const double fraction =
      static_cast<double>(on) / static_cast<double>(sample.pairs.size());
  // 10% of the genome is targeted but should receive the large majority
  // of fragments.
  EXPECT_GT(fraction, 0.8);
  EXPECT_LT(fraction, 1.0);  // capture leakage exists
}

}  // namespace
}  // namespace gpf::simdata
