// Execution-backend tests: PhysicalPlan lowering, and the cross-backend
// golden contract — the same WGS pipeline on the in-process, spilling,
// and distributed backends must produce bit-identical VCF output and
// identical stage structure, under fault injection, a 4 KiB residency
// budget, and a mid-stage worker SIGKILL.
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "cleaner/markdup.hpp"
#include "core/backend.hpp"
#include "core/pipeline.hpp"
#include "core/processes.hpp"
#include "core/resource.hpp"
#include "core/wgs_pipeline.hpp"
#include "engine/fault_injector.hpp"
#include "exec/backend_factory.hpp"
#include "exec/distributed_backend.hpp"
#include "exec/spilling_backend.hpp"
#include "formats/vcf.hpp"
#include "simdata/read_sim.hpp"

namespace gpf {
namespace {

using core::WgsResult;

// --- PhysicalPlan lowering --------------------------------------------------

using IntResource = core::ValueResource<int>;

/// Minimal Process for plan-shape tests: defines its output, nothing else.
class SetterProcess final : public core::Process {
 public:
  SetterProcess(std::string name, std::vector<core::Resource*> inputs,
                IntResource* out, bool wide)
      : Process(std::move(name), std::move(inputs), {out}),
        out_(out),
        wide_(wide) {}

  bool has_wide_dependency() const override { return wide_; }

 private:
  void run(core::PipelineContext&) override { out_->set(1); }

  IntResource* out_;
  bool wide_;
};

/// Runs exec::consume_backend_flags on `args` (argv[0] is added) and
/// returns the arguments it left behind.  Parsing only: no backend is
/// built and no worker process is started.
std::vector<std::string> consume_flags(std::vector<std::string> args,
                                       exec::BackendSpec& spec) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  int argc = static_cast<int>(args.size());
  exec::consume_backend_flags(argc, argv.data(), spec);
  return {argv.begin() + 1, argv.begin() + argc};
}

TEST(BackendFlags, AcceptsInRangeValuesInBothForms) {
  exec::BackendSpec spec;
  const auto rest = consume_flags(
      {"pipeline", "--backend", "distributed", "--workers=1", "ref.fa"}, spec);
  EXPECT_EQ(rest, (std::vector<std::string>{"pipeline", "ref.fa"}));
  EXPECT_EQ(spec.kind, exec::BackendKind::kDistributed);
  EXPECT_EQ(spec.workers, 1);
  const std::string max_workers = std::to_string(exec::kMaxWorkers);
  consume_flags({"--workers", max_workers, "--store-budget=65536"}, spec);
  EXPECT_EQ(spec.workers, exec::kMaxWorkers);
  EXPECT_EQ(spec.store_budget, 65536u);
  consume_flags({"--store-budget", "0"}, spec);
  EXPECT_EQ(spec.store_budget, 0u);
}

TEST(BackendFlags, RejectsSignedZeroAndUnboundedWorkers) {
  const std::string above = std::to_string(exec::kMaxWorkers + 1);
  const std::string huge = "99999999999999999999";  // past unsigned long long
  std::vector<std::string> bad = {"-1", "+2", "0", above, huge, "", "2x", " 2"};
  for (const std::string& value : bad) {
    exec::BackendSpec spec;
    try {
      consume_flags({"--workers", value}, spec);
      ADD_FAILURE() << "accepted --workers '" << value << "'";
    } catch (const std::invalid_argument& e) {
      const std::string want = "bad --workers '" + value + "'";
      EXPECT_EQ(std::string(e.what()).rfind(want, 0), 0u) << e.what();
    }
    EXPECT_EQ(spec.workers, 2) << value;
  }
}

TEST(BackendFlags, RejectsSignedStoreBudgetUnknownBackendAndMissingValue) {
  exec::BackendSpec spec;
  EXPECT_THROW(consume_flags({"--store-budget", "-65536"}, spec),
               std::invalid_argument);
  EXPECT_THROW(consume_flags({"--store-budget=+1"}, spec),
               std::invalid_argument);
  EXPECT_THROW(consume_flags({"--backend", "gpu"}, spec),
               std::invalid_argument);
  EXPECT_THROW(consume_flags({"--workers"}, spec), std::invalid_argument);
  EXPECT_EQ(spec.store_budget, 0u);
  EXPECT_EQ(spec.kind, exec::BackendKind::kInProcess);
}

TEST(PhysicalPlan, WavesWideFlagsAndDescribe) {
  engine::Engine engine({.worker_threads = 1});
  Reference ref;
  core::Pipeline p("toy", engine, ref);
  auto* a = p.add_resource(IntResource::make_defined("a", 1));
  auto* b = p.add_resource(IntResource::make_undefined("b"));
  auto* c = p.add_resource(IntResource::make_undefined("c"));
  auto* d = p.add_resource(IntResource::make_undefined("d"));
  p.add_process(std::make_unique<SetterProcess>(
      "P1", std::vector<core::Resource*>{a}, b, false));
  p.add_process(std::make_unique<SetterProcess>(
      "P2", std::vector<core::Resource*>{a}, c, true));
  p.add_process(std::make_unique<SetterProcess>(
      "P3", std::vector<core::Resource*>{b, c}, d, false));

  const core::PhysicalPlan plan = p.plan();
  ASSERT_EQ(plan.stages().size(), 3u);
  EXPECT_EQ(plan.stages()[0].wave, 0u);
  EXPECT_EQ(plan.stages()[1].wave, 0u);
  EXPECT_EQ(plan.stages()[2].wave, 1u);
  EXPECT_FALSE(plan.stages()[0].wide);
  EXPECT_TRUE(plan.stages()[1].wide);
  EXPECT_EQ(plan.wave_count(), 2u);
  EXPECT_EQ(plan.wide_stage_count(), 1u);
  EXPECT_EQ(plan.describe(), "P1[w0] P2[w0,wide] P3[w1]");
  EXPECT_EQ(plan.stages()[2].inputs,
            (std::vector<std::string>{"b", "c"}));
  EXPECT_EQ(plan.stages()[2].outputs, (std::vector<std::string>{"d"}));
}

TEST(PhysicalPlan, CircularDependencyNamesStuckProcesses) {
  engine::Engine engine({.worker_threads = 1});
  Reference ref;
  core::Pipeline p("cycle", engine, ref);
  auto* x = p.add_resource(IntResource::make_undefined("x"));
  auto* y = p.add_resource(IntResource::make_undefined("y"));
  p.add_process(std::make_unique<SetterProcess>(
      "needs_x", std::vector<core::Resource*>{x}, y, false));
  p.add_process(std::make_unique<SetterProcess>(
      "needs_y", std::vector<core::Resource*>{y}, x, false));
  try {
    p.plan();
    FAIL() << "expected circular-dependency error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("circular dependency"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("needs_x"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("needs_y"), std::string::npos);
  }
}

// --- cross-backend goldens --------------------------------------------------

struct BackendFixture : public ::testing::Test {
  static simdata::Workload& workload() {
    static simdata::Workload w = [] {
      simdata::ReadSimSpec spec;
      spec.coverage = 10.0;
      spec.duplicate_fraction = 0.05;
      spec.seed = 401;
      simdata::VariantSpec vspec;
      vspec.snp_rate = 0.0008;
      vspec.seed = 403;
      return simdata::make_workload(80'000, 2, spec, vspec);
    }();
    return w;
  }

  static core::PipelineConfig config() {
    core::PipelineConfig c;
    c.partition_length = 10'000;
    c.split_threshold = 2'000;
    c.fastq_partitions = 8;
    return c;
  }

  static VcfHeader vcf_header() {
    VcfHeader h;
    for (const auto& c : workload().reference.contigs()) {
      h.contigs.push_back({c.name, static_cast<std::int64_t>(
                                       c.sequence.size())});
    }
    return h;
  }

  struct Golden {
    std::string vcf;
    std::vector<std::string> process_names;
    std::vector<std::string> engine_stage_names;
  };

  /// One in-process run is THE golden; every other backend/chaos variant
  /// must reproduce its VCF text bit for bit.
  static const Golden& golden() {
    static Golden g = [] {
      core::EngineBackend backend(engine::EngineConfig{.worker_threads = 4});
      const WgsResult r = run_wgs_pipeline(backend, workload().reference,
                                           workload().sample.pairs,
                                           workload().truth, config());
      Golden out;
      out.vcf = write_vcf(vcf_header(), r.variants);
      for (const auto& t : r.report.timings) {
        out.process_names.push_back(t.name);
      }
      for (const auto& s : backend.engine().metrics().stages()) {
        out.engine_stage_names.push_back(s.name);
      }
      return out;
    }();
    return g;
  }

  static std::string distributed_worker_binary() { return GPF_WORKER_BIN; }
};

TEST_F(BackendFixture, InProcessReportShape) {
  const Golden& g = golden();
  ASSERT_FALSE(g.vcf.empty());
  ASSERT_FALSE(g.process_names.empty());
  ASSERT_FALSE(g.engine_stage_names.empty());
}

TEST_F(BackendFixture, BorrowedEngineBackendIsIdenticalToOwned) {
  engine::Engine engine({.worker_threads = 4});
  const WgsResult r = run_wgs_pipeline(engine, workload().reference,
                                       workload().sample.pairs,
                                       workload().truth, config());
  EXPECT_EQ(r.report.backend, "inprocess");
  EXPECT_EQ(write_vcf(vcf_header(), r.variants), golden().vcf);
}

TEST_F(BackendFixture, SpillingBackendBitIdenticalAndSpills) {
  exec::SpillingBackendOptions options;
  options.engine = {.worker_threads = 4};
  exec::SpillingBackend backend(options);
  const WgsResult r = run_wgs_pipeline(backend, workload().reference,
                                       workload().sample.pairs,
                                       workload().truth, config());
  EXPECT_EQ(r.report.backend, "spill");
  EXPECT_EQ(write_vcf(vcf_header(), r.variants), golden().vcf);

  // Identical stage structure: same Process sequence, same engine stages.
  std::vector<std::string> process_names;
  for (const auto& t : r.report.timings) process_names.push_back(t.name);
  EXPECT_EQ(process_names, golden().process_names);
  std::vector<std::string> stage_names;
  for (const auto& s : backend.engine().metrics().stages()) {
    stage_names.push_back(s.name);
  }
  EXPECT_EQ(stage_names, golden().engine_stage_names);

  // Every wide boundary's blocks actually went through the chunk store.
  const engine::ShuffleTransportStats stats = backend.transport_stats();
  EXPECT_GT(stats.shuffles, 0u);
  EXPECT_GT(stats.blocks_put, 0u);
  EXPECT_GT(stats.bytes_spilled, 0u);
  EXPECT_EQ(stats.blocks_fetched, stats.blocks_put);

  // The per-Process report attributes the spill traffic somewhere.
  std::uint64_t spilled = 0;
  for (const auto& t : r.report.timings) spilled += t.backend.bytes_spilled;
  EXPECT_EQ(spilled, stats.bytes_spilled);
}

TEST_F(BackendFixture, SpillingBackendCompletesUnderTinyBudget) {
  // 4 KiB is far below any single shuffle's working set: the residency
  // manager must thrash (evict on nearly every fetch) yet the run still
  // completes with bit-identical output — the budget bounds caching, not
  // correctness.
  exec::SpillingBackendOptions options;
  options.engine = {.worker_threads = 4};
  options.store_budget = 4096;
  exec::SpillingBackend backend(options);
  const WgsResult r = run_wgs_pipeline(backend, workload().reference,
                                       workload().sample.pairs,
                                       workload().truth, config());
  EXPECT_EQ(write_vcf(vcf_header(), r.variants), golden().vcf);
  EXPECT_GT(backend.transport_stats().bytes_spilled, 0u);
  EXPECT_GT(backend.chunk_store().residency().stats().evictions, 0u);
}

TEST_F(BackendFixture, DistributedBackendBitIdentical) {
  exec::DistributedBackendOptions options;
  options.engine = {.worker_threads = 4};
  options.workers = 2;
  options.worker_binary = distributed_worker_binary();
  exec::DistributedBackend backend(options);
  const WgsResult r = run_wgs_pipeline(backend, workload().reference,
                                       workload().sample.pairs,
                                       workload().truth, config());
  EXPECT_EQ(r.report.backend, "distributed");
  EXPECT_EQ(write_vcf(vcf_header(), r.variants), golden().vcf);

  std::vector<std::string> process_names;
  for (const auto& t : r.report.timings) process_names.push_back(t.name);
  EXPECT_EQ(process_names, golden().process_names);
  std::vector<std::string> stage_names;
  for (const auto& s : backend.engine().metrics().stages()) {
    stage_names.push_back(s.name);
  }
  EXPECT_EQ(stage_names, golden().engine_stage_names);

  const engine::ShuffleTransportStats stats = backend.transport_stats();
  EXPECT_GT(stats.blocks_put, 0u);
  EXPECT_GT(stats.bytes_fetched, 0u);
  EXPECT_EQ(stats.lineage_recoveries, 0u);  // no chaos in this variant

  // The per-Process report attributes all the transport traffic.
  std::uint64_t put = 0;
  std::uint64_t fetched = 0;
  for (const auto& t : r.report.timings) {
    put += t.backend.bytes_put;
    fetched += t.backend.bytes_fetched;
  }
  EXPECT_EQ(put, stats.bytes_put);
  EXPECT_EQ(fetched, stats.bytes_fetched);
}

TEST_F(BackendFixture, DistributedBackendSurvivesWorkerSigkillMidStage) {
  exec::DistributedBackendOptions options;
  options.engine = {.worker_threads = 4};
  options.workers = 2;
  options.worker_binary = distributed_worker_binary();
  exec::DistributedBackend backend(options);

  // Chaos: SIGKILL the worker that owns the first pushed map output, as
  // soon as a later push proves the stage is mid-flight.  Its blocks die
  // with it; the reduce side must repair from the driver's lineage cache
  // (and any in-flight pushes to it must retry as map recomputes).
  std::atomic<int> pushes{0};
  std::atomic<int> first_owner{-1};
  std::atomic<bool> killed{false};
  backend.set_push_hook([&](std::size_t, int worker) {
    const int n = pushes.fetch_add(1);
    if (n == 0) {
      first_owner.store(worker);
      return;
    }
    const int target = first_owner.load();
    if (target >= 0 && !killed.exchange(true)) {
      backend.worker_pool().kill_worker(target, SIGKILL);
    }
  });

  const WgsResult r = run_wgs_pipeline(backend, workload().reference,
                                       workload().sample.pairs,
                                       workload().truth, config());
  EXPECT_TRUE(killed.load());
  EXPECT_EQ(backend.worker_pool().alive_count(), 1u);
  EXPECT_EQ(write_vcf(vcf_header(), r.variants), golden().vcf);
  // The killed owner's blocks were re-pushed from the lineage cache.
  EXPECT_GT(backend.transport_stats().lineage_recoveries, 0u);
}

TEST_F(BackendFixture, AllBackendsBitIdenticalUnderFaultInjection) {
  // The same deterministic chaos on every backend: random task failures
  // plus block corruption on first attempts.  Recovery is lineage
  // recompute from immutable inputs, so output must not change.
  const auto rules = std::vector<engine::FaultRule>{
      engine::FaultRule::fail_random("", 0.05, 1),
      engine::FaultRule::corrupt_block("", engine::kAnyTask, engine::kAnyTask,
                                       1),
  };

  for (const auto& kind : {exec::BackendKind::kInProcess,
                           exec::BackendKind::kSpill,
                           exec::BackendKind::kDistributed}) {
    exec::BackendSpec spec;
    spec.kind = kind;
    spec.engine = {.worker_threads = 4};
    spec.workers = 2;
    spec.worker_binary = distributed_worker_binary();
    const std::unique_ptr<core::ExecutionBackend> backend =
        exec::make_backend(spec);
    backend->engine().set_fault_injector(
        std::make_shared<engine::FaultInjector>(1789, rules));
    const WgsResult r = run_wgs_pipeline(*backend, workload().reference,
                                         workload().sample.pairs,
                                         workload().truth, config());
    EXPECT_EQ(write_vcf(vcf_header(), r.variants), golden().vcf)
        << "backend: " << backend->name();
    EXPECT_GT(backend->engine().metrics().total_injected_faults(), 0u)
        << "backend: " << backend->name();
  }
}

// --- duplicate marking across Sort partitions ------------------------------

struct MarkdupRun {
  std::vector<SamRecord> sorted;
  std::vector<std::vector<SamRecord>> sorted_partitions;
  std::vector<SamRecord> marked;
  cleaner::MarkDuplicatesStats stats;
};

/// A duplicate-rich sample with a noisy quality profile.  Mates never
/// share a signature group (one end's signature holds the other's
/// leftmost position, not its unclipped start), so a group straddles
/// Sort's partitions only where its reads are clipped differently; such
/// groups are rare, and this sample has a few of them at 300 bp partitions.
const simdata::Workload& straddle_workload() {
  static const simdata::Workload w = [] {
    simdata::ReadSimSpec spec;
    spec.coverage = 30.0;
    spec.duplicate_fraction = 0.3;
    spec.quality = simdata::QualityProfile::srr504516();
    spec.seed = 401;
    simdata::VariantSpec vspec;
    vspec.snp_rate = 0.0008;
    vspec.seed = 403;
    return simdata::make_workload(20'000, 1, spec, vspec);
  }();
  return w;
}

/// Align, repartition, sort and mark duplicates on `backend`.
MarkdupRun run_markdup(core::ExecutionBackend& backend,
                       const simdata::Workload& w) {
  core::PipelineConfig config;
  config.partition_length = 300;
  config.fastq_partitions = 8;
  core::Pipeline p("markdup", backend, w.reference, config);
  auto* fastq =
      p.add_resource(core::FastqPairBundle::make_undefined("fastqPair"));
  auto* aligned = p.add_resource(core::SamBundle::make_undefined("aligned"));
  auto* info = p.add_resource(
      core::PartitionInfoResource::make_undefined("partitionInfo"));
  auto* sorted = p.add_resource(core::SamBundle::make_undefined("sorted"));
  auto* deduped = p.add_resource(core::SamBundle::make_undefined("deduped"));
  p.add_process(std::make_unique<core::LoadFastqProcess>(
      "LoadFastq", w.sample.pairs, fastq));
  p.add_process(
      std::make_unique<core::BwaMemProcess>("MyBwaMapping", fastq, aligned));
  p.add_process(std::make_unique<core::ReadRepartitioner>(
      "MyRepartitioner", aligned, info));
  p.add_process(std::make_unique<core::SortProcess>("MySort", aligned, info,
                                                    sorted));
  auto* markdup = p.add_process(std::make_unique<core::MarkDuplicateProcess>(
      "MyMarkDuplicate", sorted, deduped));
  p.run();
  return {sorted->get().collect(), sorted->get().partitions(),
          deduped->get().collect(), markdup->stats()};
}

/// Signature groups with two or more fragments whose records lie in more
/// than one Sort partition: marking each partition on its own decides
/// these wrongly.
std::size_t straddling_duplicate_groups(
    const std::vector<std::vector<SamRecord>>& partitions) {
  struct Group {
    std::set<std::size_t> partitions;
    std::set<std::string> fragments;
  };
  std::map<std::tuple<std::int32_t, std::int64_t, bool, std::int32_t,
                      std::int64_t, bool>,
           Group>
      groups;
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    for (const SamRecord& rec : partitions[p]) {
      if (!cleaner::is_duplicate_candidate(rec)) continue;
      const auto s = cleaner::fragment_signature(rec);
      Group& g = groups[{s.contig_id, s.unclipped_start, s.reverse,
                         s.mate_contig_id, s.mate_pos, s.mate_reverse}];
      g.partitions.insert(p);
      g.fragments.insert(rec.qname);
    }
  }
  std::size_t n = 0;
  for (const auto& [sig, g] : groups) {
    if (g.partitions.size() > 1 && g.fragments.size() > 1) ++n;
  }
  return n;
}

TEST_F(BackendFixture, DuplicateFlagsEqualOneWholeSetCallOnEveryBackend) {
  // Every record's flag and the stats must equal one mark_duplicates call
  // over Sort's whole output in dataset order, on every backend and under
  // task retries.
  std::vector<std::unique_ptr<core::ExecutionBackend>> backends;
  for (const auto& kind : {exec::BackendKind::kInProcess,
                           exec::BackendKind::kSpill,
                           exec::BackendKind::kDistributed,
                           exec::BackendKind::kInProcess}) {
    exec::BackendSpec spec;
    spec.kind = kind;
    spec.engine = {.worker_threads = 4};
    spec.workers = 2;
    spec.worker_binary = distributed_worker_binary();
    backends.push_back(exec::make_backend(spec));
  }
  // The last run retries failed tasks and corrupted blocks.
  backends.back()->engine().set_fault_injector(
      std::make_shared<engine::FaultInjector>(
          1791, std::vector<engine::FaultRule>{
                    engine::FaultRule::fail_random("", 0.2, 1),
                    engine::FaultRule::corrupt_block("", engine::kAnyTask,
                                                     engine::kAnyTask, 1)}));

  for (const auto& backend : backends) {
    const MarkdupRun run = run_markdup(*backend, straddle_workload());
    SCOPED_TRACE("backend " + backend->name());
    EXPECT_GT(straddling_duplicate_groups(run.sorted_partitions), 0u);

    std::vector<SamRecord> expected = run.sorted;
    const cleaner::MarkDuplicatesStats stats =
        cleaner::mark_duplicates(expected);
    ASSERT_GT(stats.duplicates_marked, 0u);
    EXPECT_EQ(run.stats.records, stats.records);
    EXPECT_EQ(run.stats.duplicates_marked, stats.duplicates_marked);
    EXPECT_EQ(run.stats.signature_groups, stats.signature_groups);
    ASSERT_EQ(run.marked.size(), expected.size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      differing += run.marked[i] == expected[i] ? 0 : 1;
    }
    EXPECT_EQ(differing, 0u);
  }
  EXPECT_GT(backends.back()->engine().metrics().total_injected_faults(), 0u);
}

}  // namespace
}  // namespace gpf
