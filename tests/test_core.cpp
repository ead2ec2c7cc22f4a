// Tests for the GPF core: Resources, PartitionInfo (Figs 8/9), the
// Pipeline scheduler (Algorithm 1), redundancy elimination (Fig 7), and
// the end-to-end WGS pipeline.
#include <gtest/gtest.h>

#include <algorithm>

#include "cleaner/sorter.hpp"
#include "common/checksum.hpp"
#include "common/simd.hpp"
#include "core/partition_info.hpp"
#include "core/pipeline.hpp"
#include "core/processes.hpp"
#include "core/resource.hpp"
#include "core/cohort.hpp"
#include "core/wgs_pipeline.hpp"
#include "formats/vcf.hpp"
#include "simdata/read_sim.hpp"
#include "simdata/reference_gen.hpp"

namespace gpf::core {
namespace {

// --- Resource state machine -----------------------------------------------

TEST(Resource, DefinedUndefinedTransitions) {
  auto bundle = SamBundle::make_undefined("x");
  EXPECT_FALSE(bundle->defined());
  EXPECT_THROW(bundle->get(), std::logic_error);
  engine::Engine engine({.worker_threads = 1});
  bundle->set(engine.make_dataset<SamRecord>({}));
  EXPECT_TRUE(bundle->defined());
  EXPECT_NO_THROW(bundle->get());
}

TEST(Resource, DoubleDefineThrows) {
  engine::Engine engine({.worker_threads = 1});
  auto bundle = SamBundle::make_undefined("x");
  bundle->set(engine.make_dataset<SamRecord>({}));
  EXPECT_THROW(bundle->set(engine.make_dataset<SamRecord>({})),
               std::logic_error);
}

TEST(Resource, ValueResource) {
  auto v = ValueResource<int>::make_defined("answer", 42);
  EXPECT_TRUE(v->defined());
  EXPECT_EQ(v->get(), 42);
}

// --- PartitionInfo (paper Figs 8 and 9) --------------------------------------

std::vector<SamHeader::ContigInfo> paper_contigs() {
  // Mirrors Fig 8: contigs of 250, 244, 199, 192... partitions of
  // 1,000,000 bp each.
  return {{"chr1", 250'000'000},
          {"chr2", 244'000'000},
          {"chr3", 199'000'000},
          {"chr4", 192'000'000}};
}

TEST(PartitionInfo, PaperFig8Example) {
  const PartitionInfo info(paper_contigs(), 1'000'000);
  // Starting numbers: 0, 250, 494, 693 (paper's table).
  // Position (contig 4 = index 3, 12,345,678):
  //   segment base address 693, offset 12 -> partition 705.
  EXPECT_EQ(info.base_partition_of(3, 12'345'678), 705u);
  EXPECT_EQ(info.base_partition_of(0, 0), 0u);
  EXPECT_EQ(info.base_partition_of(1, 0), 250u);
  EXPECT_EQ(info.base_partition_of(2, 0), 494u);
  EXPECT_EQ(info.base_partition_count(), 250u + 244 + 199 + 192);
}

TEST(PartitionInfo, PaperFig9SplitExample) {
  // Fig 9: partition 705 split into 4; after renumbering its start id is
  // 3510 in the paper's table.  We reproduce the *mechanism*: split 705
  // by 4, then position 12,345,678 with offset 345,678 in the partition
  // falls into sub-split 1 -> start_id + 1.
  const auto contigs = paper_contigs();
  const PartitionInfo base(contigs, 1'000'000);
  std::vector<std::uint64_t> counts(base.base_partition_count(), 100);
  counts[705] = 400;  // 4x the threshold
  PartitionInfo info = base;
  info.apply_split(counts, 100);

  const auto& entry = info.split_table()[705];
  EXPECT_EQ(entry.split_count, 4u);
  // Offset 345,678 / 250,000 = sub-partition 1 (paper's arithmetic).
  EXPECT_EQ(info.partition_of(3, 12'345'678), entry.start_id + 1);
  // Total partitions grew by 3.
  EXPECT_EQ(info.partition_count(), base.base_partition_count() + 3);
}

TEST(PartitionInfo, IdentityWithoutSplit) {
  const PartitionInfo info({{"c1", 1000}, {"c2", 500}}, 100);
  EXPECT_EQ(info.base_partition_count(), 10u + 5);
  EXPECT_EQ(info.partition_count(), 15u);
  for (std::int64_t pos = 0; pos < 1000; pos += 50) {
    EXPECT_EQ(info.partition_of(0, pos), info.base_partition_of(0, pos));
  }
}

TEST(PartitionInfo, RegionsCoverGenomeExactly) {
  PartitionInfo info({{"c1", 950}, {"c2", 430}}, 100);
  std::vector<std::uint64_t> counts(info.base_partition_count(), 10);
  counts[3] = 35;  // splits into 4
  info.apply_split(counts, 10);
  // Regions must tile each contig without gaps or overlaps.
  std::int64_t expected_start = 0;
  std::int32_t current_contig = 0;
  for (std::uint32_t p = 0; p < info.partition_count(); ++p) {
    const auto region = info.region_of(p);
    if (region.contig_id != current_contig) {
      EXPECT_EQ(expected_start, current_contig == 0 ? 950 : 430);
      current_contig = region.contig_id;
      expected_start = 0;
    }
    EXPECT_EQ(region.start, expected_start);
    EXPECT_GT(region.end, region.start);
    expected_start = region.end;
  }
  EXPECT_EQ(expected_start, 430);
}

TEST(PartitionInfo, PartitionOfMatchesRegionOf) {
  PartitionInfo info({{"c", 10'000}}, 1000);
  std::vector<std::uint64_t> counts(info.base_partition_count(), 10);
  counts[2] = 100;
  counts[7] = 55;
  info.apply_split(counts, 10);
  for (std::int64_t pos = 0; pos < 10'000; pos += 37) {
    const std::uint32_t p = info.partition_of(0, pos);
    const auto region = info.region_of(p);
    EXPECT_GE(pos, region.start) << pos;
    EXPECT_LT(pos, region.end) << pos;
  }
}

TEST(PartitionInfo, InvalidArgumentsThrow) {
  EXPECT_THROW(PartitionInfo({{"c", 100}}, 0), std::invalid_argument);
  PartitionInfo info({{"c", 1000}}, 100);
  EXPECT_THROW(info.base_partition_of(5, 0), std::out_of_range);
  std::vector<std::uint64_t> wrong_size(3, 1);
  EXPECT_THROW(info.apply_split(wrong_size, 10), std::invalid_argument);
}

// --- pipeline scheduling (Algorithm 1) ------------------------------------------

/// Minimal test process: defines its outputs, records execution order.
class StubProcess final : public Process {
 public:
  StubProcess(std::string name, std::vector<Resource*> ins,
              std::vector<ValueResource<int>*> outs,
              std::vector<std::string>* log, bool partition = false)
      : Process(std::move(name), std::move(ins),
                {outs.begin(), outs.end()}),
        outs_(std::move(outs)),
        log_(log),
        partition_(partition) {}

  bool is_partition_process() const override { return partition_; }

 private:
  void run(PipelineContext&) override {
    log_->push_back(name());
    for (auto* o : outs_) o->set(1);
  }

  std::vector<ValueResource<int>*> outs_;
  std::vector<std::string>* log_;
  bool partition_;
};

struct PipelineFixture : public ::testing::Test {
  PipelineFixture()
      : reference(simdata::generate_reference(
            simdata::ReferenceSpec::single(1'000, 1))),
        engine({.worker_threads = 2}) {}

  Reference reference;
  engine::Engine engine;
};

TEST_F(PipelineFixture, ExecutesInDependencyOrder) {
  Pipeline pipeline("p", engine, reference);
  auto* a = pipeline.add_resource(ValueResource<int>::make_undefined("a"));
  auto* b = pipeline.add_resource(ValueResource<int>::make_undefined("b"));
  auto* c = pipeline.add_resource(ValueResource<int>::make_undefined("c"));
  std::vector<std::string> log;
  // Add out of order: C depends on b, B on a, A on nothing.
  pipeline.add_process(std::make_unique<StubProcess>(
      "C", std::vector<Resource*>{b}, std::vector<ValueResource<int>*>{c},
      &log));
  pipeline.add_process(std::make_unique<StubProcess>(
      "B", std::vector<Resource*>{a}, std::vector<ValueResource<int>*>{b},
      &log));
  pipeline.add_process(std::make_unique<StubProcess>(
      "A", std::vector<Resource*>{}, std::vector<ValueResource<int>*>{a},
      &log));
  const auto report = pipeline.run();
  EXPECT_EQ(log, (std::vector<std::string>{"A", "B", "C"}));
  EXPECT_EQ(report.timings.size(), 3u);
}

TEST_F(PipelineFixture, CircularDependencyDetected) {
  Pipeline pipeline("p", engine, reference);
  auto* a = pipeline.add_resource(ValueResource<int>::make_undefined("a"));
  auto* b = pipeline.add_resource(ValueResource<int>::make_undefined("b"));
  std::vector<std::string> log;
  pipeline.add_process(std::make_unique<StubProcess>(
      "X", std::vector<Resource*>{a}, std::vector<ValueResource<int>*>{b},
      &log));
  pipeline.add_process(std::make_unique<StubProcess>(
      "Y", std::vector<Resource*>{b}, std::vector<ValueResource<int>*>{a},
      &log));
  EXPECT_THROW(pipeline.run(), std::runtime_error);
}

TEST_F(PipelineFixture, DisconnectedDagRunsAllProcesses) {
  Pipeline pipeline("p", engine, reference);
  auto* a = pipeline.add_resource(ValueResource<int>::make_undefined("a"));
  auto* b = pipeline.add_resource(ValueResource<int>::make_undefined("b"));
  std::vector<std::string> log;
  pipeline.add_process(std::make_unique<StubProcess>(
      "A", std::vector<Resource*>{}, std::vector<ValueResource<int>*>{a},
      &log));
  pipeline.add_process(std::make_unique<StubProcess>(
      "B", std::vector<Resource*>{}, std::vector<ValueResource<int>*>{b},
      &log));
  pipeline.run();
  EXPECT_EQ(log.size(), 2u);
}

TEST_F(PipelineFixture, FusionMarksLinearPartitionChains) {
  PipelineConfig config;
  config.eliminate_redundancy = true;
  Pipeline pipeline("p", engine, reference, config);
  auto* a = pipeline.add_resource(ValueResource<int>::make_undefined("a"));
  auto* b = pipeline.add_resource(ValueResource<int>::make_undefined("b"));
  auto* c = pipeline.add_resource(ValueResource<int>::make_undefined("c"));
  std::vector<std::string> log;
  auto* p1 = pipeline.add_process(std::make_unique<StubProcess>(
      "P1", std::vector<Resource*>{}, std::vector<ValueResource<int>*>{a},
      &log, /*partition=*/true));
  auto* p2 = pipeline.add_process(std::make_unique<StubProcess>(
      "P2", std::vector<Resource*>{a}, std::vector<ValueResource<int>*>{b},
      &log, /*partition=*/true));
  auto* p3 = pipeline.add_process(std::make_unique<StubProcess>(
      "P3", std::vector<Resource*>{b}, std::vector<ValueResource<int>*>{c},
      &log, /*partition=*/true));
  const auto report = pipeline.run();
  EXPECT_TRUE(p1->emit_bundle());
  EXPECT_TRUE(p2->emit_bundle());
  EXPECT_EQ(p2->bundle_source(), p1);
  EXPECT_EQ(p3->bundle_source(), p2);
  EXPECT_FALSE(p3->emit_bundle());
  EXPECT_EQ(report.processes_fused, 2u);
  EXPECT_EQ(report.fused_chains, 1u);
}

TEST_F(PipelineFixture, NoFusionWhenResourceHasTwoConsumers) {
  Pipeline pipeline("p", engine, reference);
  auto* a = pipeline.add_resource(ValueResource<int>::make_undefined("a"));
  auto* b = pipeline.add_resource(ValueResource<int>::make_undefined("b"));
  auto* c = pipeline.add_resource(ValueResource<int>::make_undefined("c"));
  std::vector<std::string> log;
  pipeline.add_process(std::make_unique<StubProcess>(
      "P1", std::vector<Resource*>{}, std::vector<ValueResource<int>*>{a},
      &log, true));
  auto* p2 = pipeline.add_process(std::make_unique<StubProcess>(
      "P2", std::vector<Resource*>{a}, std::vector<ValueResource<int>*>{b},
      &log, true));
  auto* p3 = pipeline.add_process(std::make_unique<StubProcess>(
      "P3", std::vector<Resource*>{a}, std::vector<ValueResource<int>*>{c},
      &log, true));
  pipeline.run();
  EXPECT_EQ(p2->bundle_source(), nullptr);
  EXPECT_EQ(p3->bundle_source(), nullptr);
}

TEST_F(PipelineFixture, FusionDisabledByConfig) {
  PipelineConfig config;
  config.eliminate_redundancy = false;
  Pipeline pipeline("p", engine, reference, config);
  auto* a = pipeline.add_resource(ValueResource<int>::make_undefined("a"));
  auto* b = pipeline.add_resource(ValueResource<int>::make_undefined("b"));
  std::vector<std::string> log;
  auto* p1 = pipeline.add_process(std::make_unique<StubProcess>(
      "P1", std::vector<Resource*>{}, std::vector<ValueResource<int>*>{a},
      &log, true));
  auto* p2 = pipeline.add_process(std::make_unique<StubProcess>(
      "P2", std::vector<Resource*>{a}, std::vector<ValueResource<int>*>{b},
      &log, true));
  pipeline.run();
  EXPECT_FALSE(p1->emit_bundle());
  EXPECT_EQ(p2->bundle_source(), nullptr);
}

// --- end-to-end WGS pipeline -----------------------------------------------------

struct WgsFixture : public ::testing::Test {
  static simdata::Workload& workload() {
    static simdata::Workload w = [] {
      simdata::ReadSimSpec spec;
      spec.coverage = 20.0;
      spec.duplicate_fraction = 0.05;
      spec.seed = 227;
      simdata::VariantSpec vspec;
      vspec.snp_rate = 0.0008;
      vspec.seed = 229;
      return simdata::make_workload(150'000, 2, spec, vspec);
    }();
    return w;
  }
};

TEST_F(WgsFixture, ProducesVariantsMatchingTruth) {
  engine::Engine engine({.worker_threads = 4});
  PipelineConfig config;
  config.partition_length = 20'000;
  config.split_threshold = 3'000;
  auto& w = workload();
  const WgsResult result = run_wgs_pipeline(engine, w.reference,
                                            w.sample.pairs, w.truth, config);
  ASSERT_FALSE(result.variants.empty());

  // Recall against planted SNPs.
  std::size_t snp_truth = 0, hit = 0;
  for (const auto& t : w.truth) {
    if (!t.is_snp()) continue;
    ++snp_truth;
    for (const auto& c : result.variants) {
      if (c.contig_id == t.contig_id && c.pos == t.pos && c.alt == t.alt) {
        ++hit;
        break;
      }
    }
  }
  EXPECT_GT(static_cast<double>(hit) / static_cast<double>(snp_truth), 0.75)
      << hit << "/" << snp_truth;

  // Duplicates were marked in the expected ballpark.
  const double expected_dups =
      2.0 * static_cast<double>(w.sample.duplicate_pairs);
  EXPECT_GT(static_cast<double>(result.markdup_stats.duplicates_marked),
            expected_dups * 0.7);
}

TEST_F(WgsFixture, FusionReducesStagesAndShuffleBytes) {
  auto& w = workload();
  PipelineConfig fused;
  fused.partition_length = 20'000;
  fused.eliminate_redundancy = true;
  PipelineConfig unfused = fused;
  unfused.eliminate_redundancy = false;

  engine::Engine engine_fused({.worker_threads = 4});
  const auto r1 = run_wgs_pipeline(engine_fused, w.reference, w.sample.pairs,
                                   w.truth, fused);
  engine::Engine engine_unfused({.worker_threads = 4});
  const auto r2 = run_wgs_pipeline(engine_unfused, w.reference,
                                   w.sample.pairs, w.truth, unfused);

  EXPECT_LT(engine_fused.metrics().stage_count(),
            engine_unfused.metrics().stage_count());
  EXPECT_LT(engine_fused.metrics().total_shuffle_bytes(),
            engine_unfused.metrics().total_shuffle_bytes());
  // Same variants either way: the optimization is semantics-preserving.
  EXPECT_EQ(r1.variants.size(), r2.variants.size());
}

TEST_F(WgsFixture, DynamicRepartitionSplitsHotPartitions) {
  simdata::ReadSimSpec spec;
  spec.coverage = 12.0;
  spec.hotspot_fraction = 0.05;
  spec.hotspot_multiplier = 30.0;
  spec.seed = 233;
  const auto w = simdata::make_workload(150'000, 1, spec);

  PipelineConfig with_split;
  with_split.partition_length = 15'000;
  with_split.split_threshold = 1'500;
  with_split.dynamic_repartition = true;
  PipelineConfig without_split = with_split;
  without_split.dynamic_repartition = false;

  engine::Engine e1({.worker_threads = 4});
  const auto r1 = run_wgs_pipeline(e1, w.reference, w.sample.pairs, w.truth,
                                   with_split);
  engine::Engine e2({.worker_threads = 4});
  const auto r2 = run_wgs_pipeline(e2, w.reference, w.sample.pairs, w.truth,
                                   without_split);
  EXPECT_GT(r1.final_partitions, r2.final_partitions);
}

TEST_F(WgsFixture, CodecChoiceDoesNotChangeResults) {
  auto& w = workload();
  PipelineConfig gpf_codec;
  gpf_codec.partition_length = 25'000;
  gpf_codec.codec = Codec::kGpf;
  PipelineConfig kryo_codec = gpf_codec;
  kryo_codec.codec = Codec::kKryoLike;

  engine::Engine e1({.worker_threads = 4});
  const auto r1 =
      run_wgs_pipeline(e1, w.reference, w.sample.pairs, w.truth, gpf_codec);
  engine::Engine e2({.worker_threads = 4});
  const auto r2 =
      run_wgs_pipeline(e2, w.reference, w.sample.pairs, w.truth, kryo_codec);
  ASSERT_EQ(r1.variants.size(), r2.variants.size());
  for (std::size_t i = 0; i < r1.variants.size(); ++i) {
    EXPECT_EQ(r1.variants[i], r2.variants[i]);
  }
  // And the GPF codec moves fewer shuffle bytes.
  EXPECT_LT(e1.metrics().total_shuffle_bytes(),
            e2.metrics().total_shuffle_bytes());
}

TEST_F(WgsFixture, VcfDigestGolden) {
  // The whole pipeline, BaseRecalibration and IndelRealign included, on a
  // fixed simulated sample.  The digest was recorded with the per-base
  // empirical_quality() BQSR and the one-read-at-a-time glocal() realigner;
  // every kernel and dispatch level must reproduce it bit for bit.
  engine::Engine engine({.worker_threads = 4});
  PipelineConfig config;
  config.partition_length = 20'000;
  auto& w = workload();
  const WgsResult result = run_wgs_pipeline(engine, w.reference,
                                            w.sample.pairs, w.truth, config);
  ASSERT_GT(result.variants.size(), 100u);
  VcfHeader header;
  for (const auto& c : w.reference.contigs()) {
    header.contigs.push_back(
        {c.name, static_cast<std::int64_t>(c.sequence.size())});
  }
  const std::string vcf = write_vcf(header, result.variants);
  const std::uint64_t digest = fnv1a64(std::span(
      reinterpret_cast<const std::uint8_t*>(vcf.data()), vcf.size()));
  EXPECT_EQ(digest, 0x982d39625997d180ULL)
      << result.variants.size() << " calls, level "
      << simd::level_name(simd::active_level()) << ", digest 0x" << std::hex
      << digest;
}

TEST_F(WgsFixture, RegionBundlesSkipTheIdentityRegroup) {
  engine::Engine engine({.worker_threads = 2});
  PipelineConfig config;
  config.partition_length = 20'000;
  auto& w = workload();
  PipelineContext ctx(engine, w.reference, config);
  const std::vector<FastqPair> pairs(w.sample.pairs.begin(),
                                     w.sample.pairs.begin() + 3'000);
  std::vector<SamRecord> records;
  ctx.aligner().align_pairs(pairs, records);
  const PartitionInfo info(ctx.contig_infos(), config.partition_length);
  ASSERT_GT(info.partition_count(), 2u);

  // Sort's partitioning: routed by record_partition, each one sorted.
  std::vector<std::vector<SamRecord>> routed(info.partition_count());
  for (const auto& r : records) routed[record_partition(r, info)].push_back(r);
  for (auto& part : routed) cleaner::coordinate_sort(part);
  const auto known =
      engine.parallelize(w.truth, 2).with_codec(make_vcf_codec(config.codec));

  // Builds the bundles and reports whether the SAM shuffle ran.
  const auto build = [&](std::vector<std::vector<SamRecord>> parts,
                         const std::string& prefix, bool& regrouped) {
    const std::size_t before = engine.metrics().stage_count();
    const auto sam = engine.make_dataset(std::move(parts))
                         .with_codec(make_sam_codec(config.codec));
    auto bundles = build_region_bundles(ctx, sam, known, info, prefix)
                       .collect();
    regrouped = false;
    const auto& stages = engine.metrics().stages();
    for (std::size_t k = before; k < stages.size(); ++k) {
      regrouped = regrouped || stages[k].name == prefix + ".sam_groupby";
    }
    return bundles;
  };

  bool regrouped = true;
  const auto direct = build(routed, "direct", regrouped);
  EXPECT_FALSE(regrouped);
  ASSERT_EQ(direct.size(), info.partition_count());

  EXPECT_EQ(build({records}, "one_partition", regrouped), direct);
  EXPECT_TRUE(regrouped);

  // One record in the wrong partition: the shuffle must run and put it back.
  auto misrouted = routed;
  const auto from = static_cast<std::size_t>(
      std::find_if(misrouted.begin(), misrouted.end(),
                   [](const auto& p) { return !p.empty(); }) -
      misrouted.begin());
  ASSERT_LT(from + 1, misrouted.size());
  auto& to = misrouted[from + 1];
  to.insert(to.begin(), misrouted[from].back());
  misrouted[from].pop_back();
  EXPECT_EQ(build(misrouted, "misrouted", regrouped), direct);
  EXPECT_TRUE(regrouped);
}

TEST_F(WgsFixture, GvcfModeEmitsReferenceBlocks) {
  engine::Engine engine({.worker_threads = 4});
  PipelineConfig config;
  config.partition_length = 25'000;
  auto& w = workload();
  const WgsResult result =
      run_wgs_pipeline(engine, w.reference, w.sample.pairs, w.truth, config,
                       /*use_gvcf=*/true);
  ASSERT_FALSE(result.variants.empty());
  ASSERT_FALSE(result.gvcf_blocks.empty());
  // Blocks are coordinate sorted, non-overlapping, and avoid variant
  // positions.
  for (std::size_t i = 1; i < result.gvcf_blocks.size(); ++i) {
    const auto& prev = result.gvcf_blocks[i - 1];
    const auto& cur = result.gvcf_blocks[i];
    if (prev.contig_id == cur.contig_id) {
      EXPECT_LE(prev.end, cur.start);
    }
  }
  for (const auto& v : result.variants) {
    for (const auto& b : result.gvcf_blocks) {
      if (b.contig_id != v.contig_id) continue;
      EXPECT_FALSE(v.pos >= b.start && v.pos < b.end)
          << "variant at " << v.pos << " inside block [" << b.start << ","
          << b.end << ")";
    }
  }
  // Blocks cover a substantial share of the genome at 20x coverage.
  std::int64_t covered = 0;
  for (const auto& b : result.gvcf_blocks) covered += b.end - b.start;
  EXPECT_GT(covered,
            static_cast<std::int64_t>(w.reference.total_length() / 2));
}

// --- cohort ---------------------------------------------------------------

TEST(Cohort, MergeCallSetsUnionsSites) {
  std::vector<std::vector<VcfRecord>> calls(3);
  calls[0] = {{0, 10, ".", "A", "C", 50.0, Genotype::kHet}};
  calls[1] = {{0, 10, ".", "A", "C", 80.0, Genotype::kHomAlt},
              {0, 20, ".", "G", "T", 30.0, Genotype::kHet}};
  calls[2] = {};
  const auto sites = merge_call_sets(calls);
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0].pos, 10);
  EXPECT_EQ(sites[0].genotypes,
            (std::vector<Genotype>{Genotype::kHet, Genotype::kHomAlt,
                                   Genotype::kHomRef}));
  EXPECT_DOUBLE_EQ(sites[0].qual, 80.0);
  EXPECT_EQ(sites[1].pos, 20);
  EXPECT_EQ(sites[1].genotypes[0], Genotype::kHomRef);
}

TEST(Cohort, MergeDistinguishesAlleles) {
  std::vector<std::vector<VcfRecord>> calls(2);
  calls[0] = {{0, 10, ".", "A", "C", 50.0, Genotype::kHet}};
  calls[1] = {{0, 10, ".", "A", "G", 50.0, Genotype::kHet}};
  const auto sites = merge_call_sets(calls);
  ASSERT_EQ(sites.size(), 2u);  // different ALTs are different sites
}

TEST(Cohort, WriteCohortVcfColumns) {
  VcfHeader header;
  header.contigs = {{"chr1", 1000}};
  std::vector<CohortSite> sites(1);
  sites[0].contig_id = 0;
  sites[0].pos = 9;
  sites[0].ref = "A";
  sites[0].alt = "T";
  sites[0].qual = 42.0;
  sites[0].genotypes = {Genotype::kHet, Genotype::kHomRef};
  const std::string text =
      write_cohort_vcf(header, {"S1", "S2"}, sites);
  EXPECT_NE(text.find("S1\tS2"), std::string::npos);
  EXPECT_NE(text.find("chr1\t10\t.\tA\tT"), std::string::npos);
  EXPECT_NE(text.find("GT\t0/1\t0/0"), std::string::npos);
}

TEST(Cohort, TwoSampleEndToEnd) {
  simdata::ReadSimSpec spec;
  spec.coverage = 12.0;
  spec.seed = 401;
  simdata::VariantSpec vspec;
  vspec.snp_rate = 0.0008;
  vspec.seed = 403;
  const auto w = simdata::make_workload(80'000, 1, spec, vspec);
  // Second sample: same truth genome, different reads.
  simdata::ReadSimSpec spec2 = spec;
  spec2.seed = 405;
  const simdata::Donor donor(w.reference, w.truth);
  const auto sample2 = simdata::simulate_reads(w.reference, donor, spec2);

  engine::Engine engine({.worker_threads = 4});
  PipelineConfig config;
  config.partition_length = 20'000;
  std::vector<SampleInput> samples;
  samples.push_back({"S1", w.sample.pairs});
  samples.push_back({"S2", sample2.pairs});
  const CohortResult result =
      run_cohort(engine, w.reference, std::move(samples), w.truth, config);

  ASSERT_EQ(result.per_sample.size(), 2u);
  ASSERT_FALSE(result.sites.empty());
  // Same donor genome: most sites should be shared (both samples carry a
  // non-ref genotype).
  std::size_t shared = 0;
  for (const auto& site : result.sites) {
    if (site.genotypes[0] != Genotype::kHomRef &&
        site.genotypes[1] != Genotype::kHomRef) {
      ++shared;
    }
  }
  EXPECT_GT(static_cast<double>(shared) /
                static_cast<double>(result.sites.size()),
            0.5);
}


TEST_F(PipelineFixture, ProcessFailurePropagatesWithResourceDiagnostic) {
  // A process that finishes without defining its output is a programming
  // error the pipeline must surface with the resource name.
  class ForgetfulProcess final : public Process {
   public:
    ForgetfulProcess(ValueResource<int>* out)
        : Process("Forgetful", {}, {out}) {}

   private:
    void run(PipelineContext&) override {}  // forgets to set the output
  };
  Pipeline pipeline("p", engine, reference);
  auto* out = pipeline.add_resource(ValueResource<int>::make_undefined(
      "forgotten_output"));
  pipeline.add_process(std::make_unique<ForgetfulProcess>(out));
  try {
    pipeline.run();
    FAIL() << "expected logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("forgotten_output"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("Forgetful"), std::string::npos);
  }
}

}  // namespace
}  // namespace gpf::core
