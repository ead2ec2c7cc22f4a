// Tests for the trace-driven cluster simulator, its LPT slot scheduler
// and the shared-filesystem model.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "engine/metrics.hpp"
#include "simcluster/cluster.hpp"
#include "simcluster/lpt.hpp"
#include "simcluster/sharedfs.hpp"
#include "simcluster/trace.hpp"

namespace gpf::sim {
namespace {

SimJob uniform_job(std::size_t stages, std::size_t tasks_per_stage,
                   double task_seconds, std::uint64_t disk = 0,
                   std::uint64_t net = 0) {
  SimJob job;
  for (std::size_t s = 0; s < stages; ++s) {
    SimStage stage;
    stage.name = "stage" + std::to_string(s);
    stage.phase = "phase";
    stage.tasks.assign(tasks_per_stage, {task_seconds, disk, net});
    job.stages.push_back(std::move(stage));
  }
  return job;
}

// --- LPT --------------------------------------------------------------------

double lpt_makespan(std::span<const double> costs, std::size_t slots) {
  return lpt_schedule(costs, slots, 0.0,
                      [](std::size_t, double, double, std::size_t) {});
}

TEST(Lpt, MakespanSingleSlotIsSum) {
  const std::vector<double> costs = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(lpt_makespan(costs, 1), 6.0);
}

TEST(Lpt, BalancesAcrossSlots) {
  // LPT on {4,3,3,2} over 2 slots: 4+2 vs 3+3 -> makespan 6.
  const std::vector<double> costs = {3.0, 4.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(lpt_makespan(costs, 2), 6.0);
}

TEST(Lpt, EmptyAndZeroSlots) {
  EXPECT_DOUBLE_EQ(lpt_makespan({}, 4), 0.0);
  const std::vector<double> costs = {1.0};
  EXPECT_DOUBLE_EQ(lpt_makespan(costs, 0), 0.0);
}

TEST(Lpt, PlacementsCoverEveryTaskDeterministically) {
  const std::vector<double> costs = {5.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  std::vector<int> seen(costs.size(), 0);
  std::vector<std::size_t> slots_used;
  const double end = lpt_schedule(
      costs, 2, 10.0, [&](std::size_t idx, double t0, double dur,
                          std::size_t slot) {
        ++seen[idx];
        EXPECT_GE(t0, 10.0);
        EXPECT_DOUBLE_EQ(dur, costs[idx]);
        slots_used.push_back(slot);
      });
  for (const int s : seen) EXPECT_EQ(s, 1);
  // 5 on one slot; five 1s pack onto the other: end = 10 + 5.
  EXPECT_DOUBLE_EQ(end, 15.0);
  EXPECT_LE(*std::max_element(slots_used.begin(), slots_used.end()), 1u);
}

// --- cluster simulator ------------------------------------------------------

TEST(ClusterSim, PerfectScalingForUniformTasks) {
  const SimJob job = uniform_job(1, 1024, 1.0);
  ClusterConfig small = ClusterConfig::with_cores(128);
  ClusterConfig big = ClusterConfig::with_cores(1024);
  const double t_small = simulate(job, small).makespan;
  const double t_big = simulate(job, big).makespan;
  // 8x cores -> ~8x faster for an embarrassingly-parallel uniform stage.
  EXPECT_NEAR(t_small / t_big, 8.0, 0.5);
}

TEST(ClusterSim, SkewLimitsScaling) {
  // One whale task dominates: scaling stalls at the whale's duration.
  SimJob job = uniform_job(1, 512, 0.1);
  job.stages[0].tasks[0].compute_seconds = 20.0;
  const double t = simulate(job, ClusterConfig::with_cores(2048)).makespan;
  EXPECT_GE(t, 20.0);
  EXPECT_LT(t, 21.0);
}

TEST(ClusterSim, MakespanNeverBelowCriticalPath) {
  const SimJob job = uniform_job(4, 64, 0.5);
  const auto result = simulate(job, ClusterConfig::with_cores(10240));
  // 4 stage barriers, each at least one task long.
  EXPECT_GE(result.makespan, 4 * 0.5);
}

TEST(ClusterSim, DiskBytesIncreaseMakespan) {
  const SimJob no_io = uniform_job(1, 256, 0.5);
  const SimJob with_io = uniform_job(1, 256, 0.5, 50'000'000);
  const ClusterConfig cluster = ClusterConfig::with_cores(256);
  EXPECT_GT(simulate(with_io, cluster).makespan,
            simulate(no_io, cluster).makespan);
}

TEST(ClusterSim, BlockedTimeAnalysisBounds) {
  const SimJob job = uniform_job(2, 256, 0.5, 10'000'000, 5'000'000);
  const auto r = blocked_time_analysis(job, ClusterConfig::with_cores(256));
  EXPECT_GT(r.disk_improvement(), 0.0);
  EXPECT_LT(r.disk_improvement(), 1.0);
  EXPECT_GT(r.net_improvement(), 0.0);
  EXPECT_LE(r.no_disk_makespan, r.base_makespan);
  EXPECT_LE(r.no_net_makespan, r.base_makespan);
}

TEST(ClusterSim, CpuBoundJobHasTinyBlockedImprovement) {
  // The paper's Fig 12 conclusion: compute-dominated stages see <5%
  // improvement from removing I/O.
  const SimJob job = uniform_job(1, 512, 2.0, 100'000, 50'000);
  const auto r = blocked_time_analysis(job, ClusterConfig::with_cores(512));
  EXPECT_LT(r.disk_improvement(), 0.05);
  EXPECT_LT(r.net_improvement(), 0.05);
}

TEST(ClusterSim, UtilizationTimelineShape) {
  const SimJob job = uniform_job(1, 512, 1.0, 1'000'000);
  const auto samples =
      utilization_timeline(job, ClusterConfig::with_cores(256), 20);
  ASSERT_EQ(samples.size(), 20u);
  // Middle of the run: CPU busy.
  EXPECT_GT(samples[5].cpu_fraction, 0.5);
  for (const auto& s : samples) {
    EXPECT_GE(s.cpu_fraction, 0.0);
    EXPECT_LE(s.cpu_fraction, 1.0);
  }
}

TEST(ClusterSim, UtilizationTimelineExactBoundaryConservation) {
  // 8 uniform 1s tasks on 4 cores with zero overhead: two full waves, so
  // every task edge — including the final one — lands exactly on a bucket
  // boundary and on the makespan.  Regression: the last bucket's right
  // edge was width*buckets, which can fall a hair short of the makespan
  // and drop the final sliver of work.
  SimJob job = uniform_job(1, 8, 1.0);
  ClusterConfig cluster = ClusterConfig::with_cores(4);
  cluster.task_overhead = 0.0;
  const double makespan = simulate(job, cluster).makespan;
  EXPECT_DOUBLE_EQ(makespan, 2.0);

  const auto samples = utilization_timeline(job, cluster, 4);
  ASSERT_EQ(samples.size(), 4u);
  const double width = makespan / 4.0;
  double core_seconds = 0.0;
  for (const auto& s : samples) {
    EXPECT_NEAR(s.cpu_fraction, 1.0, 1e-9);
    core_seconds += s.cpu_fraction * width * 4.0;
  }
  // All 8 task-seconds accounted for, none lost at the boundaries.
  EXPECT_NEAR(core_seconds, 8.0, 1e-9);
}

TEST(ClusterSim, UtilizationTimelineSingleBucket) {
  SimJob job = uniform_job(2, 16, 0.5);
  ClusterConfig cluster = ClusterConfig::with_cores(8);
  cluster.task_overhead = 0.0;
  const auto samples = utilization_timeline(job, cluster, 1);
  ASSERT_EQ(samples.size(), 1u);
  const double makespan = simulate(job, cluster).makespan;
  // 16 task-seconds over makespan * 8 cores.
  EXPECT_NEAR(samples[0].cpu_fraction, 16.0 / (makespan * 8.0), 1e-9);
}

TEST(ClusterSim, UtilizationTimelineCountsColdDiskBytes) {
  // Regression: cold stage-file bytes contributed disk *time* but not
  // disk *bytes*, so a cold-disk-only job showed a flat-zero disk
  // timeline.
  SimJob job = uniform_job(1, 64, 0.1);
  for (auto& t : job.stages[0].tasks) t.cold_disk_bytes = 10'000'000;
  const ClusterConfig cluster = ClusterConfig::with_cores(64);
  const std::size_t buckets = 10;
  const auto samples = utilization_timeline(job, cluster, buckets);
  const double makespan = simulate(job, cluster).makespan;
  const double width = makespan / static_cast<double>(buckets);
  double deposited = 0.0;
  for (const auto& s : samples) deposited += s.disk_bytes_per_s * width;
  // Every cold byte shows up in the timeline, conserved across buckets.
  EXPECT_NEAR(deposited, 64.0 * 10'000'000.0, 1.0);
}

TEST(ClusterSim, SimulateToSpansMatchesSchedule) {
  const SimJob job = uniform_job(2, 16, 1.0);
  const ClusterConfig cluster = ClusterConfig::with_cores(4);
  const auto spans = simulate_to_spans(job, cluster);
  // One span per task plus one per stage.
  ASSERT_EQ(spans.size(), 2u * 16u + 2u);
  const auto result = simulate(job, cluster);
  double last_end_us = 0.0;
  std::size_t stage_spans = 0;
  for (const auto& s : spans) {
    EXPECT_EQ(s.pid, 1u);
    if (s.kind == trace::SpanKind::kSimStage) {
      ++stage_spans;
      EXPECT_EQ(s.track, 0u);
    } else {
      EXPECT_EQ(s.kind, trace::SpanKind::kSimTask);
      // Task tracks are core slots offset past the driver track.
      EXPECT_GE(s.track, 1u);
      EXPECT_LE(s.track, cluster.total_cores());
    }
    last_end_us = std::max(last_end_us, s.start_us + s.dur_us);
  }
  EXPECT_EQ(stage_spans, 2u);
  EXPECT_NEAR(last_end_us, result.makespan * 1e6, 1e-3);
}

TEST(ClusterSim, ReplicateTasksScalesWork) {
  const SimJob job = uniform_job(2, 16, 1.0);
  const SimJob big = replicate_tasks(job, 4);
  EXPECT_EQ(big.stages[0].tasks.size(), 64u);
  EXPECT_NEAR(big.total_compute_seconds(), 4 * job.total_compute_seconds(),
              1e-9);
}

TEST(ClusterSim, ScaleJobScalesBytesAndCompute) {
  const SimJob job = uniform_job(1, 8, 2.0, 1000, 500);
  const SimJob scaled = scale_job(job, 0.5, 3.0);
  EXPECT_DOUBLE_EQ(scaled.stages[0].tasks[0].compute_seconds, 1.0);
  EXPECT_EQ(scaled.stages[0].tasks[0].disk_bytes, 3000u);
  EXPECT_EQ(scaled.stages[0].tasks[0].net_bytes, 1500u);
}

TEST(ClusterSim, WithCoresSmallCounts) {
  const auto c = ClusterConfig::with_cores(4);
  EXPECT_EQ(c.total_cores(), 4u);
  const auto big = ClusterConfig::with_cores(2048);
  EXPECT_EQ(big.total_cores(), 2048u);
}

TEST(ClusterSim, CoreHoursAccounting) {
  const SimJob job = uniform_job(1, 256, 1.0);
  const ClusterConfig cluster = ClusterConfig::with_cores(256);
  const auto result = simulate(job, cluster);
  EXPECT_NEAR(result.core_hours(cluster),
              result.makespan * 256.0 / 3600.0, 1e-9);
}

// --- trace conversion -------------------------------------------------------

TEST(Trace, NarrowStageBecomesComputeOnly) {
  engine::EngineMetrics metrics;
  engine::StageMetrics stage;
  stage.name = "aligner.map";
  stage.task_count = 4;
  stage.task_seconds = {1.0, 2.0, 3.0, 4.0};
  metrics.add_stage(stage);

  const SimJob job = trace_job(metrics);
  ASSERT_EQ(job.stages.size(), 1u);
  EXPECT_EQ(job.stages[0].phase, "aligner");
  EXPECT_EQ(job.stages[0].tasks.size(), 4u);
  EXPECT_EQ(job.stages[0].tasks[0].disk_bytes, 0u);
  EXPECT_DOUBLE_EQ(job.stages[0].tasks[3].compute_seconds, 4.0);
}

TEST(Trace, WideStageSplitsBytesBetweenMapAndReduce) {
  engine::EngineMetrics metrics;
  engine::StageMetrics stage;
  stage.name = "cleaner.shuffle";
  stage.task_count = 4;
  stage.task_seconds = {1.0, 1.0, 1.0, 1.0};
  stage.wide = true;
  stage.map_task_count = 2;
  stage.shuffle_write_bytes = 1000;
  stage.shuffle_read_bytes = 1000;
  metrics.add_stage(stage);

  const SimJob job = trace_job(metrics);
  const auto& tasks = job.stages[0].tasks;
  // Map tasks write to disk only.
  EXPECT_EQ(tasks[0].disk_bytes, 500u);
  EXPECT_EQ(tasks[0].net_bytes, 0u);
  // Reduce tasks read from disk and network.
  EXPECT_EQ(tasks[2].disk_bytes, 500u);
  EXPECT_GT(tasks[2].net_bytes, 0u);
}

TEST(Trace, ScalesComputeAndBytes) {
  engine::EngineMetrics metrics;
  engine::StageMetrics stage;
  stage.name = "x";
  stage.task_count = 1;
  stage.task_seconds = {2.0};
  stage.input_bytes = 100;
  metrics.add_stage(stage);

  TraceOptions options;
  options.compute_scale = 3.0;
  options.bytes_scale = 10.0;
  const SimJob job = trace_job(metrics, options);
  EXPECT_DOUBLE_EQ(job.stages[0].tasks[0].compute_seconds, 6.0);
  // Stage input bytes are cold file traffic (spindle rate).
  EXPECT_EQ(job.stages[0].tasks[0].cold_disk_bytes, 1000u);
  EXPECT_EQ(job.stages[0].tasks[0].disk_bytes, 0u);
}

// --- shared filesystem --------------------------------------------------------

std::vector<FilePipelineStep> wgs_like_steps() {
  // A 100GB-class WGS pipeline: ~2 CPU-hours of work, ~45GB of stage-file
  // traffic (the regime of the paper's Table 1 measurement).
  return {
      {"align", 3600.0, 8'000'000'000ULL, 9'000'000'000ULL},
      {"sort", 1200.0, 9'000'000'000ULL, 9'000'000'000ULL},
      {"call", 2400.0, 9'000'000'000ULL, 500'000'000ULL},
  };
}

TEST(SharedFs, IoFractionGrowsWithSamples) {
  // The Table 1 effect: more concurrent samples -> each gets less
  // filesystem bandwidth -> I/O share of runtime grows.
  const auto steps = wgs_like_steps();
  const auto fs = SharedFsConfig::lustre();
  const auto one = run_file_pipeline(steps, 1, 96, fs);
  const auto thirty = run_file_pipeline(steps, 30, 16, fs);
  EXPECT_LT(one.io_fraction(), thirty.io_fraction());
  EXPECT_GT(thirty.io_fraction(), 0.5);
  EXPECT_LT(one.io_fraction(), 0.4);
}

TEST(SharedFs, NfsWorseThanLustreUnderLoad) {
  const auto steps = wgs_like_steps();
  const auto lustre =
      run_file_pipeline(steps, 30, 16, SharedFsConfig::lustre());
  const auto nfs = run_file_pipeline(steps, 30, 16, SharedFsConfig::nfs());
  EXPECT_GT(nfs.io_fraction(), lustre.io_fraction());
}

TEST(SharedFs, ZeroSamplesIsEmptyResult) {
  const auto r = run_file_pipeline(wgs_like_steps(), 0, 16,
                                   SharedFsConfig::lustre());
  EXPECT_DOUBLE_EQ(r.total_seconds, 0.0);
}

TEST(SharedFs, PerClientCapLimitsSingleSample) {
  // With one client, bandwidth is the per-client cap, not the aggregate.
  SharedFsConfig fs;
  fs.aggregate_bw = 100e9;
  fs.per_client_bw = 1e9;
  fs.concurrency_efficiency = 1.0;
  const std::vector<FilePipelineStep> steps = {{"io", 0.0, 1'000'000'000ULL,
                                                0}};
  const auto r = run_file_pipeline(steps, 1, 8, fs);
  EXPECT_NEAR(r.io_seconds, 1.0, 1e-9);
}

}  // namespace
}  // namespace gpf::sim
