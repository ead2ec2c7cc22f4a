// Chaos suite: deterministic fault injection against the engine and the
// cluster simulator.
//
// Everything here must be bit-reproducible: injector decisions are pure
// hashes of (seed, stage, task, attempt), so two runs of the same faulted
// pipeline produce identical results *and* identical failure accounting.
// The suite runs under GPF_CHAOS_SEED (see .github/workflows/ci.yml, which
// sweeps ten seeds); tests that assert a specific fault count pin their own
// seed instead of using the sweep seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "engine/dataset.hpp"
#include "engine/fault_injector.hpp"
#include "simcluster/cluster.hpp"
#include "simcluster/trace.hpp"
#include "test_codecs.hpp"

namespace gpf::engine {
namespace {

std::uint64_t chaos_seed() {
  // Strict parse: a malformed GPF_CHAOS_SEED aborts the suite instead of
  // silently collapsing the CI sweep onto one default seed.
  return seed_from_env("GPF_CHAOS_SEED", 42);
}

std::vector<int> iota_vec(int n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

/// The injected-fault decision pattern over a (ordinal, task, attempt)
/// grid, as a set of flattened indices that failed.
std::set<std::size_t> failure_pattern(FaultInjector& injector) {
  std::set<std::size_t> failed;
  for (std::size_t ordinal = 0; ordinal < 4; ++ordinal) {
    for (std::size_t task = 0; task < 16; ++task) {
      for (int attempt = 0; attempt < 3; ++attempt) {
        try {
          injector.check_attempt("stage", ordinal, task, attempt);
        } catch (const InjectedFault&) {
          failed.insert((ordinal * 16 + task) * 3 +
                        static_cast<std::size_t>(attempt));
        }
      }
    }
  }
  return failed;
}

TEST(Injector, SameSeedSameDecisions) {
  const auto rules = std::vector<FaultRule>{
      FaultRule::fail_random("", 0.5, /*attempts=*/-1)};
  FaultInjector a(chaos_seed(), rules);
  FaultInjector b(chaos_seed(), rules);
  const auto pa = failure_pattern(a);
  const auto pb = failure_pattern(b);
  EXPECT_EQ(pa, pb);
  // p=0.5 over 192 draws: some fail, some survive, for any seed.
  EXPECT_GT(pa.size(), 0u);
  EXPECT_LT(pa.size(), 192u);
  EXPECT_EQ(a.injected_failures(), pa.size());
}

TEST(Injector, DifferentSeedsDifferentDecisions) {
  const auto rules = std::vector<FaultRule>{
      FaultRule::fail_random("", 0.5, /*attempts=*/-1)};
  FaultInjector a(chaos_seed(), rules);
  FaultInjector b(chaos_seed() + 1, rules);
  EXPECT_NE(failure_pattern(a), failure_pattern(b));
}

TEST(Injector, FailTaskMatchesConfiguredTaskAndAttempts) {
  FaultInjector injector(
      7, {FaultRule::fail_task("stage", /*task=*/3, /*attempts=*/2)});
  EXPECT_THROW(injector.check_attempt("stage", 0, 3, 0), InjectedFault);
  EXPECT_THROW(injector.check_attempt("stage", 0, 3, 1), InjectedFault);
  EXPECT_NO_THROW(injector.check_attempt("stage", 0, 3, 2));   // recovered
  EXPECT_NO_THROW(injector.check_attempt("stage", 0, 2, 0));   // other task
  EXPECT_NO_THROW(injector.check_attempt("other", 0, 3, 0));   // other stage
  EXPECT_NO_THROW(injector.check_attempt("stage", 0, 3, -1));  // speculative
}

TEST(Chaos, FailedTaskRecoversAndMatchesCleanRun) {
  Engine clean({.worker_threads = 4});
  const auto expected =
      clean.parallelize(iota_vec(64), 8)
          .map("double", [](const int& x) { return 2 * x; })
          .collect();

  Engine chaotic({.worker_threads = 4});
  chaotic.set_fault_injector(std::make_shared<FaultInjector>(
      chaos_seed(),
      std::vector<FaultRule>{FaultRule::fail_task("double", 5)}));
  const auto got = chaotic.parallelize(iota_vec(64), 8)
                       .map("double", [](const int& x) { return 2 * x; })
                       .collect();
  EXPECT_EQ(got, expected);
  const auto& stage = chaotic.metrics().stages().back();
  EXPECT_FALSE(stage.failed);
  EXPECT_EQ(stage.failed_attempts, 1u);
  EXPECT_EQ(stage.task_retries, 1u);
  EXPECT_EQ(stage.injected_faults, 1u);
}

TEST(Chaos, RetryExhaustionThrowsTypedStageFailure) {
  Engine engine({.worker_threads = 2, .max_task_retries = 2});
  engine.set_fault_injector(std::make_shared<FaultInjector>(
      chaos_seed(), std::vector<FaultRule>{FaultRule::fail_task(
                        "doomed", 2, /*attempts=*/-1)}));
  auto ds = engine.parallelize(iota_vec(16), 4);
  try {
    ds.map_partitions<int>("doomed",
                           [](const std::vector<int>& part) { return part; });
    FAIL() << "expected StageFailure";
  } catch (const StageFailure& e) {
    EXPECT_EQ(e.stage(), "doomed");
    EXPECT_EQ(e.task(), 2u);
    EXPECT_EQ(e.attempts(), 3);  // initial attempt + 2 retries
    EXPECT_NE(std::string(e.what()).find("injected fault"),
              std::string::npos);
  }
  // The wrecked stage is still in the metrics, flagged and accounted.
  const auto& stage = engine.metrics().stages().back();
  EXPECT_TRUE(stage.failed);
  EXPECT_EQ(stage.failed_attempts, 3u);
  EXPECT_EQ(stage.task_retries, 2u);
}

TEST(Chaos, RandomFaultsEverywhereStillComputeCorrectResults) {
  const auto odd = [](const int& x) {
    return x % 2 ? std::vector<int>{x} : std::vector<int>{};
  };
  Engine clean({.worker_threads = 4});
  const auto expected = clean.parallelize(iota_vec(500), 16)
                            .flat_map("odd", odd)
                            .map("square", [](const int& x) { return x * x; })
                            .collect();
  // First-attempt failures with p=0.5 on every task of every stage: all
  // recover via retry, so the chaos run is indistinguishable by results.
  Engine chaotic({.worker_threads = 4});
  chaotic.set_fault_injector(std::make_shared<FaultInjector>(
      chaos_seed(),
      std::vector<FaultRule>{FaultRule::fail_random("", 0.5)}));
  const auto got =
      chaotic.parallelize(iota_vec(500), 16)
          .flat_map("odd", odd)
          .map("square", [](const int& x) { return x * x; })
          .collect();
  EXPECT_EQ(got, expected);
  EXPECT_GT(chaotic.metrics().total_failed_attempts(), 0u);
  EXPECT_EQ(chaotic.metrics().total_failed_attempts(),
            chaotic.fault_injector()->injected_failures());
}

TEST(Chaos, AnySeedStillProducesCorrectResults) {
  Engine clean({.worker_threads = 4});
  auto sorted_clean = clean.parallelize(iota_vec(300), 8)
                          .with_codec(tests::pod_codec<int>())
                          .shuffle("spread", 5,
                                   [](const int& x) {
                                     return static_cast<std::uint64_t>(x);
                                   })
                          .collect();
  std::sort(sorted_clean.begin(), sorted_clean.end());
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Engine chaotic({.worker_threads = 4});
    chaotic.set_fault_injector(std::make_shared<FaultInjector>(
        seed, std::vector<FaultRule>{FaultRule::fail_random("", 0.4)}));
    auto got = chaotic.parallelize(iota_vec(300), 8)
                   .with_codec(tests::pod_codec<int>())
                   .shuffle("spread", 5,
                            [](const int& x) {
                              return static_cast<std::uint64_t>(x);
                            })
                   .collect();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, sorted_clean) << "seed " << seed;
  }
}

/// The faulted pipeline the reproducibility tests run twice: random
/// first-attempt failures on the map stage, a corrupted shuffle block, and
/// a straggler.  Each fault kind targets a distinct stage so the counters
/// have exact expected values for any seed (e.g. a random failure on the
/// corrupted reduce task would pre-empt the attempt-0 corruption).
struct ChaosRunOutcome {
  std::vector<int> results;
  std::vector<std::size_t> failed_attempts;
  std::vector<std::size_t> retries;
  std::vector<std::size_t> speculative;
  std::vector<std::size_t> injected;
  std::size_t injector_failures = 0;
  std::size_t injector_delays = 0;
  std::size_t injector_corruptions = 0;
};

ChaosRunOutcome run_chaos_pipeline(std::uint64_t seed) {
  Engine engine({.worker_threads = 4});
  engine.set_fault_injector(std::make_shared<FaultInjector>(
      seed,
      std::vector<FaultRule>{
          FaultRule::fail_random("triple", 0.5),
          FaultRule::corrupt_block("modshuffle", 1, 2),
          FaultRule::delay_task("stretch", 0, /*delay_ms=*/60.0),
      }));
  auto ds = engine.parallelize(iota_vec(400), 8)
                .map("triple", [](const int& x) { return 3 * x; })
                .with_codec(tests::pod_codec<int>())
                .shuffle("modshuffle", 6,
                         [](const int& x) {
                           return static_cast<std::uint64_t>(x / 3 % 6);
                         })
                .map_partitions<int>("stretch",
                                     [](const std::vector<int>& part) {
                                       return part;
                                     });
  ChaosRunOutcome out;
  out.results = ds.collect();
  for (const auto& stage : engine.metrics().stages()) {
    out.failed_attempts.push_back(stage.failed_attempts);
    out.retries.push_back(stage.task_retries);
    out.speculative.push_back(stage.speculative_launches);
    out.injected.push_back(stage.injected_faults);
  }
  const FaultInjector* injector = engine.fault_injector();
  out.injector_failures = injector->injected_failures();
  out.injector_delays = injector->injected_delays();
  out.injector_corruptions = injector->injected_corruptions();
  return out;
}

TEST(Chaos, SeededRunIsBitReproducible) {
  const std::uint64_t seed = chaos_seed();
  const ChaosRunOutcome a = run_chaos_pipeline(seed);
  const ChaosRunOutcome b = run_chaos_pipeline(seed);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.failed_attempts, b.failed_attempts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.speculative, b.speculative);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.injector_failures, b.injector_failures);
  EXPECT_EQ(a.injector_delays, b.injector_delays);
  EXPECT_EQ(a.injector_corruptions, b.injector_corruptions);
  // And the chaos changed nothing about the answer.
  Engine clean({.worker_threads = 4});
  const auto expected =
      clean.parallelize(iota_vec(400), 8)
          .map("triple", [](const int& x) { return 3 * x; })
          .with_codec(tests::pod_codec<int>())
          .shuffle("modshuffle",
                   6, [](const int& x) {
                     return static_cast<std::uint64_t>(x / 3 % 6);
                   })
          .collect();
  EXPECT_EQ(a.results, expected);
  EXPECT_EQ(a.injector_corruptions, 1u);
  EXPECT_EQ(a.injector_delays, 1u);
}

TEST(Chaos, InjectorAndMetricsAccountingAgree) {
  const ChaosRunOutcome a = run_chaos_pipeline(chaos_seed());
  const std::size_t stage_injected =
      std::accumulate(a.injected.begin(), a.injected.end(), std::size_t{0});
  EXPECT_EQ(stage_injected, a.injector_failures + a.injector_delays +
                                a.injector_corruptions);
}

TEST(Chaos, InjectedStragglerTriggersSpeculation) {
  Engine engine({.worker_threads = 4});
  engine.set_fault_injector(std::make_shared<FaultInjector>(
      chaos_seed(), std::vector<FaultRule>{FaultRule::delay_task(
                        "slow", 1, /*delay_ms=*/400.0)}));
  auto got = engine.parallelize(iota_vec(64), 8)
                 .map("slow", [](const int& x) { return x + 1; })
                 .collect();
  std::vector<int> expected = iota_vec(65);
  expected.erase(expected.begin());
  EXPECT_EQ(got, expected);
  const auto& stage = engine.metrics().stages().back();
  EXPECT_EQ(stage.speculative_launches, 1u);
  EXPECT_EQ(stage.injected_faults, 1u);
  // The speculative copy won long before the straggler's 400ms nap ended.
  EXPECT_LT(stage.wall_seconds, 0.35);
}

TEST(Chaos, SpeculativeCopyWinsWhenPrimaryIsDoomed) {
  // Task 2's primary attempts would fail forever, but its injected delay
  // launches a speculative copy that is exempt from injection (it models a
  // healthy replacement node) and claims the task first.
  Engine engine({.worker_threads = 4, .max_task_retries = 1});
  engine.set_fault_injector(std::make_shared<FaultInjector>(
      chaos_seed(),
      std::vector<FaultRule>{
          FaultRule::delay_task("rescued", 2, /*delay_ms=*/400.0),
          FaultRule::fail_task("rescued", 2, /*attempts=*/-1),
      }));
  const auto got = engine.parallelize(iota_vec(64), 8)
                       .map("rescued", [](const int& x) { return x; })
                       .collect();
  EXPECT_EQ(got, iota_vec(64));
  const auto& stage = engine.metrics().stages().back();
  EXPECT_FALSE(stage.failed);
  EXPECT_EQ(stage.speculative_launches, 1u);
}

TEST(Chaos, CorruptedShuffleBlockIsRetriedAndHeals) {
  Engine clean({.worker_threads = 4});
  const auto expected =
      clean.parallelize(iota_vec(200), 4)
          .with_codec(tests::pod_codec<int>())
          .shuffle("bykey", 3,
                   [](const int& x) { return static_cast<std::uint64_t>(x); })
          .collect();

  Engine chaotic({.worker_threads = 4});
  chaotic.set_fault_injector(std::make_shared<FaultInjector>(
      chaos_seed(), std::vector<FaultRule>{FaultRule::corrupt_block(
                        "bykey", /*map_task=*/0, /*block=*/1)}));
  const auto got =
      chaotic.parallelize(iota_vec(200), 4)
          .with_codec(tests::pod_codec<int>())
          .shuffle("bykey", 3,
                   [](const int& x) { return static_cast<std::uint64_t>(x); })
          .collect();
  EXPECT_EQ(got, expected);
  const auto& stage = chaotic.metrics().stages().back();
  EXPECT_FALSE(stage.failed);
  EXPECT_EQ(stage.failed_attempts, 1u);  // the poisoned reduce attempt
  EXPECT_EQ(stage.task_retries, 1u);
  EXPECT_EQ(chaotic.fault_injector()->injected_corruptions(), 1u);
}

TEST(Chaos, PersistentCorruptionFailsTheReduceTask) {
  Engine engine({.worker_threads = 2, .max_task_retries = 2});
  engine.set_fault_injector(std::make_shared<FaultInjector>(
      chaos_seed(), std::vector<FaultRule>{FaultRule::corrupt_block(
                        "bykey", 0, 1, /*attempts=*/-1)}));
  auto ds = engine.parallelize(iota_vec(100), 4)
                .with_codec(tests::pod_codec<int>());
  try {
    ds.shuffle("bykey", 3,
               [](const int& x) { return static_cast<std::uint64_t>(x); });
    FAIL() << "expected StageFailure";
  } catch (const StageFailure& e) {
    EXPECT_EQ(e.stage(), "bykey");
    EXPECT_GE(e.task(), 4u);  // a reduce task (map tasks are 0..3)
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
  EXPECT_TRUE(engine.metrics().stages().back().failed);
}

TEST(SeedParse, AcceptsCanonicalDecimal) {
  EXPECT_EQ(parse_seed("0"), 0u);
  EXPECT_EQ(parse_seed("42"), 42u);
  EXPECT_EQ(parse_seed("007"), 7u);
  EXPECT_EQ(parse_seed("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(SeedParse, RejectsMalformedValues) {
  const char* bad_values[] = {
      "",      " ",      "abc",   "12abc", "abc12",
      "-1",    "+5",     " 7",    "7 ",    "1.5",
      "0x10",  "1e9",    "1,000", "18446744073709551616",
      "999999999999999999999999999"};
  for (const char* bad : bad_values) {
    EXPECT_THROW(parse_seed(bad), std::invalid_argument)
        << "accepted \"" << bad << '"';
  }
}

TEST(SeedParse, EnvReadsFallbacksAndRejects) {
  unsetenv("GPF_TEST_SEED");
  EXPECT_EQ(seed_from_env("GPF_TEST_SEED", 7), 7u);
  setenv("GPF_TEST_SEED", "123", 1);
  EXPECT_EQ(seed_from_env("GPF_TEST_SEED", 7), 123u);
  setenv("GPF_TEST_SEED", "bogus", 1);
  try {
    seed_from_env("GPF_TEST_SEED", 7);
    FAIL() << "malformed env seed accepted";
  } catch (const std::invalid_argument& e) {
    // The error must name the variable and the offending value.
    EXPECT_NE(std::string(e.what()).find("GPF_TEST_SEED"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
  unsetenv("GPF_TEST_SEED");
}

TEST(Chaos, GroupByUnderRandomFaultsKeepsGroupsComplete) {
  Engine engine({.worker_threads = 4});
  engine.set_fault_injector(std::make_shared<FaultInjector>(
      chaos_seed(),
      std::vector<FaultRule>{FaultRule::fail_random("", 0.4)}));
  // Group by x % 7: shuffle on the key, then group each partition, as the
  // pipeline's groupBy stages do.
  using Group = std::pair<int, std::vector<int>>;
  auto grouped =
      engine.parallelize(iota_vec(210), 7)
          .with_codec(tests::pod_codec<int>())
          .shuffle("bymod", 4,
                   [](const int& x) {
                     return static_cast<std::uint64_t>(x % 7);
                   })
          .map_partitions<Group>(
              "bymod.group", [](const std::vector<int>& part) {
                std::map<int, std::vector<int>> groups;
                for (const int x : part) groups[x % 7].push_back(x);
                return std::vector<Group>(groups.begin(), groups.end());
              });
  std::size_t total = 0;
  std::size_t groups = 0;
  for (const auto& part : grouped.partitions()) {
    for (const auto& [key, members] : part) {
      ++groups;
      total += members.size();
      for (const int m : members) EXPECT_EQ(m % 7, key);
    }
  }
  EXPECT_EQ(groups, 7u);
  EXPECT_EQ(total, 210u);
}

TEST(Chaos, AggregateSurvivesInjectedFailures) {
  Engine engine({.worker_threads = 4});
  engine.set_fault_injector(std::make_shared<FaultInjector>(
      chaos_seed(),
      std::vector<FaultRule>{FaultRule::fail_random("sum", 0.5)}));
  const int total = engine.parallelize(iota_vec(101), 8).aggregate<int>(
      "sum", 0, [](int acc, const int& x) { return acc + x; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(total, 5050);
}


TEST(SimChaos, NodeFailureIncreasesMakespan) {
  sim::SimJob job;
  sim::SimStage stage;
  stage.name = "work";
  stage.tasks.assign(12, sim::SimTask{.compute_seconds = 1.0});
  job.stages.push_back(stage);

  sim::ClusterConfig cluster;
  cluster.nodes = 4;
  cluster.cores_per_node = 1;

  const auto base = sim::simulate(job, cluster);
  sim::FaultScenario scenario;
  scenario.events.push_back(sim::NodeEvent::failure(0, base.makespan / 2));
  const auto faulted = sim::simulate_with_faults(job, cluster, scenario);
  EXPECT_GT(faulted.makespan, base.makespan);
  EXPECT_GE(faulted.tasks_restarted, 1u);
  EXPECT_EQ(faulted.nodes_lost, 1u);
}

TEST(SimChaos, NodeSlowdownIncreasesMakespan) {
  sim::SimJob job;
  sim::SimStage stage;
  stage.name = "work";
  stage.tasks.assign(12, sim::SimTask{.compute_seconds = 1.0});
  job.stages.push_back(stage);

  sim::ClusterConfig cluster;
  cluster.nodes = 4;
  cluster.cores_per_node = 1;

  const auto base = sim::simulate(job, cluster);
  sim::FaultScenario scenario;
  scenario.events.push_back(sim::NodeEvent::slowdown(0, 0.0, 0.25));
  const auto degraded = sim::simulate_with_faults(job, cluster, scenario);
  EXPECT_GT(degraded.makespan, base.makespan);
  EXPECT_EQ(degraded.tasks_restarted, 0u);
  EXPECT_EQ(degraded.nodes_lost, 0u);
}

TEST(SimChaos, EmptyScenarioMatchesFaultFreeReplay) {
  sim::SimJob job;
  sim::SimStage stage;
  stage.name = "work";
  for (int i = 0; i < 20; ++i) {
    stage.tasks.push_back(sim::SimTask{
        .compute_seconds = 0.1 * (1 + i % 5),
        .disk_bytes = 1u << 20,
        .net_bytes = 1u << 18,
    });
  }
  job.stages.push_back(stage);
  const auto cluster = sim::ClusterConfig::with_cores(8);
  const auto base = sim::simulate(job, cluster);
  const auto chaosless = sim::simulate_with_faults(job, cluster, {});
  EXPECT_DOUBLE_EQ(chaosless.makespan, base.makespan);
  EXPECT_EQ(chaosless.tasks_restarted, 0u);
}

TEST(SimChaos, FailureBeforeStartEqualsSmallerCluster) {
  sim::SimJob job;
  sim::SimStage stage;
  stage.name = "work";
  stage.tasks.assign(9, sim::SimTask{.compute_seconds = 1.0});
  job.stages.push_back(stage);

  sim::ClusterConfig four;
  four.nodes = 4;
  four.cores_per_node = 1;
  sim::ClusterConfig three = four;
  three.nodes = 3;

  sim::FaultScenario scenario;
  scenario.events.push_back(sim::NodeEvent::failure(3, 0.0));
  const auto faulted = sim::simulate_with_faults(job, four, scenario);
  const auto smaller = sim::simulate(job, three);
  EXPECT_DOUBLE_EQ(faulted.makespan, smaller.makespan);
  EXPECT_EQ(faulted.tasks_restarted, 0u);
}

TEST(SimChaos, AllNodesFailedThrows) {
  sim::SimJob job;
  sim::SimStage stage;
  stage.name = "work";
  stage.tasks.assign(4, sim::SimTask{.compute_seconds = 1.0});
  job.stages.push_back(stage);
  sim::ClusterConfig cluster;
  cluster.nodes = 1;
  cluster.cores_per_node = 2;
  sim::FaultScenario scenario;
  scenario.events.push_back(sim::NodeEvent::failure(0, 0.5));
  EXPECT_THROW(sim::simulate_with_faults(job, cluster, scenario),
               std::runtime_error);
}

TEST(SimChaos, ReplayIsDeterministic) {
  sim::SimJob job;
  sim::SimStage stage;
  stage.name = "work";
  for (int i = 0; i < 30; ++i) {
    stage.tasks.push_back(
        sim::SimTask{.compute_seconds = 0.05 * (1 + i % 7)});
  }
  job.stages.push_back(stage);
  sim::ClusterConfig cluster;
  cluster.nodes = 3;
  cluster.cores_per_node = 2;
  sim::FaultScenario scenario;
  scenario.events.push_back(sim::NodeEvent::failure(1, 0.2));
  scenario.events.push_back(sim::NodeEvent::slowdown(0, 0.1, 0.5));
  const auto a = sim::simulate_with_faults(job, cluster, scenario);
  const auto b = sim::simulate_with_faults(job, cluster, scenario);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.tasks_restarted, b.tasks_restarted);
}

TEST(SimChaos, EngineTraceReplayWithNodeFailure) {
  // The acceptance scenario: record a real (faulted!) engine run, replay
  // its trace on a virtual cluster, then replay it again losing a node
  // mid-run — the makespan must strictly grow.
  Engine engine({.worker_threads = 4});
  engine.set_fault_injector(std::make_shared<FaultInjector>(
      chaos_seed(),
      std::vector<FaultRule>{FaultRule::fail_random("", 0.2)}));
  engine.parallelize(iota_vec(2000), 32)
      .map("scale", [](const int& x) { return x * 7; })
      .with_codec(tests::pod_codec<int>())
      .shuffle("redistribute", 24,
               [](const int& x) { return static_cast<std::uint64_t>(x); })
      .shuffle("order", 16,
               [](const int& x) {
                 // Range-partition the scaled values [0, 14000) into 16
                 // ordered key ranges, then sort each range locally.
                 return static_cast<std::uint64_t>(x) * 16 / 14000;
               })
      .map_partitions<int>("order.local_sort",
                           [](const std::vector<int>& part) {
                             std::vector<int> out = part;
                             std::sort(out.begin(), out.end());
                             return out;
                           });

  const sim::SimJob job =
      sim::replicate_tasks(sim::trace_job(engine.metrics()), 16);
  sim::ClusterConfig cluster;
  cluster.nodes = 2;
  cluster.cores_per_node = 4;
  const auto base = sim::simulate(job, cluster);
  ASSERT_GT(base.makespan, 0.0);

  sim::FaultScenario scenario;
  scenario.events.push_back(sim::NodeEvent::failure(1, base.makespan / 2));
  const auto faulted = sim::simulate_with_faults(job, cluster, scenario);
  EXPECT_GT(faulted.makespan, base.makespan);
  EXPECT_EQ(faulted.nodes_lost, 1u);
}

}  // namespace
}  // namespace gpf::engine
