#include "simcluster/cluster.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <utility>

#include "simcluster/lpt.hpp"

namespace gpf::sim {
namespace {

/// Per-task timing decomposition on a given cluster.
struct TaskCost {
  double compute = 0.0;
  double disk = 0.0;
  double net = 0.0;
  double total(bool with_disk, bool with_net) const {
    return compute + (with_disk ? disk : 0.0) + (with_net ? net : 0.0);
  }
};

TaskCost task_cost(const SimTask& task, const ClusterConfig& cluster) {
  TaskCost c;
  c.compute = task.compute_seconds / cluster.core_speed +
              cluster.task_overhead;
  // Static contention model: a task sees its per-core share of the node's
  // disk/network bandwidth (the steady-state share when the node is full).
  const double disk_share =
      cluster.disk_bw_per_node / static_cast<double>(cluster.cores_per_node);
  const double cold_share = cluster.cold_disk_bw_per_node /
                            static_cast<double>(cluster.cores_per_node);
  const double net_share =
      cluster.net_bw_per_node / static_cast<double>(cluster.cores_per_node);
  c.disk = static_cast<double>(task.disk_bytes) / disk_share +
           static_cast<double>(task.cold_disk_bytes) / cold_share;
  c.net = static_cast<double>(task.net_bytes) / net_share;
  return c;
}

/// Schedules one stage's tasks LPT onto `cores` slots starting at time
/// `start`; returns the stage end time and optionally records per-task
/// intervals via `on_task(idx, start, duration, slot)` (simcluster/lpt.hpp).
template <typename OnTask>
double schedule_stage(const std::vector<TaskCost>& costs, std::size_t cores,
                      double start, bool with_disk, bool with_net,
                      OnTask&& on_task) {
  std::vector<double> totals;
  totals.reserve(costs.size());
  for (const TaskCost& c : costs) {
    totals.push_back(c.total(with_disk, with_net));
  }
  return lpt_schedule(totals, cores, start, std::forward<OnTask>(on_task));
}

SimResult simulate_impl(const SimJob& job, const ClusterConfig& cluster,
                        bool with_disk, bool with_net) {
  if (cluster.total_cores() == 0) {
    throw std::invalid_argument("cluster has zero cores");
  }
  SimResult result;
  double clock = 0.0;
  for (const auto& stage : job.stages) {
    std::vector<TaskCost> costs;
    costs.reserve(stage.tasks.size());
    for (const auto& t : stage.tasks) costs.push_back(task_cost(t, cluster));

    SimStageResult sr;
    sr.name = stage.name;
    sr.phase = stage.phase;
    sr.start = clock;
    sr.task_count = stage.tasks.size();
    for (const auto& c : costs) {
      sr.compute_seconds += c.compute;
      sr.disk_seconds += with_disk ? c.disk : 0.0;
      sr.net_seconds += with_net ? c.net : 0.0;
    }
    const double end = schedule_stage(
        costs, cluster.total_cores(), clock, with_disk, with_net,
        [](std::size_t, double, double, std::size_t) {});
    sr.duration = end - clock;
    clock = end;

    result.total_compute_seconds += sr.compute_seconds;
    result.total_disk_seconds += sr.disk_seconds;
    result.total_net_seconds += sr.net_seconds;
    result.stages.push_back(std::move(sr));
  }
  result.makespan = clock;
  return result;
}

}  // namespace

ClusterConfig ClusterConfig::with_cores(std::size_t cores) {
  ClusterConfig c;
  if (cores == 0) cores = 1;
  // Pick the largest cores-per-node <= 10 (the paper's usable cores per
  // node) that divides the requested total exactly, so experiments get
  // the core count they asked for.
  for (std::size_t cpn = std::min<std::size_t>(10, cores); cpn >= 1; --cpn) {
    if (cores % cpn == 0) {
      c.cores_per_node = cpn;
      c.nodes = cores / cpn;
      break;
    }
  }
  return c;
}

double SimJob::total_compute_seconds() const {
  double t = 0.0;
  for (const auto& s : stages) {
    for (const auto& task : s.tasks) t += task.compute_seconds;
  }
  return t;
}

std::uint64_t SimJob::total_disk_bytes() const {
  std::uint64_t b = 0;
  for (const auto& s : stages) {
    for (const auto& task : s.tasks) b += task.disk_bytes;
  }
  return b;
}

std::uint64_t SimJob::total_net_bytes() const {
  std::uint64_t b = 0;
  for (const auto& s : stages) {
    for (const auto& task : s.tasks) b += task.net_bytes;
  }
  return b;
}

double SimResult::core_hours(const ClusterConfig& cluster) const {
  return makespan * static_cast<double>(cluster.total_cores()) / 3600.0;
}

double SimResult::disk_fraction() const {
  const double busy =
      total_compute_seconds + total_disk_seconds + total_net_seconds;
  return busy <= 0.0 ? 0.0 : total_disk_seconds / busy;
}

double SimResult::net_fraction() const {
  const double busy =
      total_compute_seconds + total_disk_seconds + total_net_seconds;
  return busy <= 0.0 ? 0.0 : total_net_seconds / busy;
}

SimResult simulate(const SimJob& job, const ClusterConfig& cluster) {
  return simulate_impl(job, cluster, /*with_disk=*/true, /*with_net=*/true);
}

std::vector<trace::Span> simulate_to_spans(const SimJob& job,
                                           const ClusterConfig& cluster,
                                           std::uint32_t pid) {
  if (cluster.total_cores() == 0) {
    throw std::invalid_argument("cluster has zero cores");
  }
  std::vector<trace::Span> spans;
  double clock = 0.0;
  for (const auto& stage : job.stages) {
    std::vector<TaskCost> costs;
    costs.reserve(stage.tasks.size());
    for (const auto& t : stage.tasks) costs.push_back(task_cost(t, cluster));
    const double start = clock;
    clock = schedule_stage(
        costs, cluster.total_cores(), clock, /*with_disk=*/true,
        /*with_net=*/true,
        [&](std::size_t idx, double t0, double dur, std::size_t slot) {
          trace::Span s;
          s.name = stage.name;
          s.kind = trace::SpanKind::kSimTask;
          s.pid = pid;
          s.track = static_cast<std::uint32_t>(slot + 1);
          s.start_us = t0 * 1e6;
          s.dur_us = dur * 1e6;
          s.task = static_cast<std::int64_t>(idx);
          spans.push_back(std::move(s));
        });
    trace::Span s;
    s.name = stage.name;
    s.kind = trace::SpanKind::kSimStage;
    s.pid = pid;
    s.track = 0;  // the virtual driver track, above the core slots
    s.start_us = start * 1e6;
    s.dur_us = (clock - start) * 1e6;
    spans.push_back(std::move(s));
  }
  return spans;
}

NodeEvent NodeEvent::failure(std::size_t node, double time) {
  NodeEvent e;
  e.kind = Kind::kNodeFailure;
  e.node = node;
  e.time = time;
  return e;
}

NodeEvent NodeEvent::slowdown(std::size_t node, double time,
                              double speed_factor) {
  NodeEvent e;
  e.kind = Kind::kNodeSlowdown;
  e.node = node;
  e.time = time;
  e.speed_factor = speed_factor;
  return e;
}

SimResult simulate_with_faults(const SimJob& job, const ClusterConfig& cluster,
                               const FaultScenario& scenario) {
  if (cluster.total_cores() == 0) {
    throw std::invalid_argument("cluster has zero cores");
  }
  const double kNever = std::numeric_limits<double>::infinity();
  std::vector<double> fail_at(cluster.nodes, kNever);
  std::vector<std::vector<std::pair<double, double>>> slowdowns(cluster.nodes);
  for (const auto& e : scenario.events) {
    if (e.node >= cluster.nodes) {
      throw std::invalid_argument("node event beyond cluster size");
    }
    if (e.kind == NodeEvent::Kind::kNodeFailure) {
      fail_at[e.node] = std::min(fail_at[e.node], e.time);
    } else {
      if (e.speed_factor <= 0.0) {
        throw std::invalid_argument("slowdown factor must be positive");
      }
      slowdowns[e.node].emplace_back(e.time, e.speed_factor);
    }
  }
  // Speed of a node's cores for a task starting at time `t` (slowdowns
  // compound; a task keeps its start-time speed for its whole duration,
  // which keeps the replay a pure function of the scenario).
  auto speed_at = [&](std::size_t node, double t) {
    double f = 1.0;
    for (const auto& [time, factor] : slowdowns[node]) {
      if (time <= t) f *= factor;
    }
    return f;
  };

  SimResult result;
  double clock = 0.0;
  for (const auto& stage : job.stages) {
    std::vector<TaskCost> costs;
    costs.reserve(stage.tasks.size());
    for (const auto& t : stage.tasks) costs.push_back(task_cost(t, cluster));

    SimStageResult sr;
    sr.name = stage.name;
    sr.phase = stage.phase;
    sr.start = clock;
    sr.task_count = stage.tasks.size();
    for (const auto& c : costs) {
      sr.compute_seconds += c.compute;
      sr.disk_seconds += c.disk;
      sr.net_seconds += c.net;
    }

    // LPT order, as the fault-free scheduler uses.
    std::vector<std::size_t> order(costs.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return costs[a].total(true, true) >
                              costs[b].total(true, true);
                     });
    std::deque<std::size_t> pending(order.begin(), order.end());

    // Min-heap of (free time, node) core slots on nodes alive at the
    // stage barrier; slots on nodes that die mid-stage are retired as
    // they surface.
    std::priority_queue<std::pair<double, std::size_t>,
                        std::vector<std::pair<double, std::size_t>>,
                        std::greater<>>
        free_at;
    for (std::size_t node = 0; node < cluster.nodes; ++node) {
      if (fail_at[node] <= clock) continue;
      for (std::size_t c = 0; c < cluster.cores_per_node; ++c) {
        free_at.emplace(clock, node);
      }
    }

    double end = clock;
    while (!pending.empty()) {
      if (free_at.empty()) {
        throw std::runtime_error(
            "simulate_with_faults: every node failed with tasks remaining");
      }
      const auto [t0, node] = free_at.top();
      free_at.pop();
      if (fail_at[node] <= t0) continue;  // node died while the core idled
      const std::size_t idx = pending.front();
      pending.pop_front();
      const double dur = costs[idx].total(true, true) / speed_at(node, t0);
      const double t1 = t0 + dur;
      if (fail_at[node] < t1) {
        // Node dies mid-task: the attempt's work is lost; the task
        // restarts from its lineage on whichever core frees next.
        ++result.tasks_restarted;
        pending.push_back(idx);
        continue;  // the slot dies with the node
      }
      free_at.emplace(t1, node);
      end = std::max(end, t1);
    }
    sr.duration = end - clock;
    clock = end;

    result.total_compute_seconds += sr.compute_seconds;
    result.total_disk_seconds += sr.disk_seconds;
    result.total_net_seconds += sr.net_seconds;
    result.stages.push_back(std::move(sr));
  }
  result.makespan = clock;
  for (std::size_t node = 0; node < cluster.nodes; ++node) {
    if (fail_at[node] <= result.makespan) ++result.nodes_lost;
  }
  return result;
}

BlockedTimeResult blocked_time_analysis(const SimJob& job,
                                        const ClusterConfig& cluster) {
  BlockedTimeResult r;
  r.base_makespan = simulate_impl(job, cluster, true, true).makespan;
  r.no_disk_makespan = simulate_impl(job, cluster, false, true).makespan;
  r.no_net_makespan = simulate_impl(job, cluster, true, false).makespan;
  return r;
}

std::vector<UtilSample> utilization_timeline(const SimJob& job,
                                             const ClusterConfig& cluster,
                                             std::size_t buckets) {
  if (buckets == 0) throw std::invalid_argument("buckets == 0");
  // First pass to learn the makespan; second pass distributes each task's
  // compute/disk/net phases into buckets.
  const SimResult base = simulate(job, cluster);
  const double makespan = std::max(base.makespan, 1e-9);
  const double width = makespan / static_cast<double>(buckets);

  std::vector<UtilSample> samples(buckets);
  for (std::size_t b = 0; b < buckets; ++b) {
    samples[b].time = width * static_cast<double>(b);
  }

  // Buckets are half-open [b*width, (b+1)*width) except the last, whose
  // right edge is the makespan itself: width*buckets can land a hair below
  // makespan in floating point, and an event ending exactly at the
  // makespan must not have its final sliver dropped.
  auto bucket_of = [&](double t) {
    return std::min<std::size_t>(buckets - 1,
                                 static_cast<std::size_t>(t / width));
  };
  auto bucket_end = [&](std::size_t b) {
    return b + 1 == buckets ? makespan : width * static_cast<double>(b + 1);
  };
  auto deposit = [&](double t0, double t1, double amount,
                     auto member) {
    // Spreads `amount` uniformly over [t0, t1) across buckets.
    if (t1 <= t0) return;
    const double rate = amount / (t1 - t0);
    const std::size_t b0 = bucket_of(t0);
    const std::size_t b1 = bucket_of(t1);
    for (std::size_t b = b0; b <= b1; ++b) {
      const double lo = std::max(t0, width * static_cast<double>(b));
      const double hi = std::min(t1, bucket_end(b));
      if (hi > lo) samples[b].*member += rate * (hi - lo);
    }
  };

  double clock = 0.0;
  for (const auto& stage : job.stages) {
    std::vector<TaskCost> costs;
    costs.reserve(stage.tasks.size());
    for (const auto& t : stage.tasks) costs.push_back(task_cost(t, cluster));
    const double end = schedule_stage(
        costs, cluster.total_cores(), clock, true, true,
        [&](std::size_t idx, double t0, double, std::size_t) {
          const TaskCost& c = costs[idx];
          // Task phases: compute, then disk, then network.
          deposit(t0, t0 + c.compute, c.compute, &UtilSample::cpu_fraction);
          // c.disk covers both page-cache shuffle traffic and cold stage
          // files, so the byte deposit must too — otherwise a cold-disk
          // dominated job shows a flat-zero disk timeline.
          const double d0 = t0 + c.compute;
          deposit(d0, d0 + c.disk,
                  static_cast<double>(stage.tasks[idx].disk_bytes +
                                      stage.tasks[idx].cold_disk_bytes),
                  &UtilSample::disk_bytes_per_s);
          const double n0 = d0 + c.disk;
          deposit(n0, n0 + c.net,
                  static_cast<double>(stage.tasks[idx].net_bytes),
                  &UtilSample::net_bytes_per_s);
        });
    clock = end;
  }

  // cpu_fraction currently holds busy core-seconds per bucket; normalize.
  const double denom = width * static_cast<double>(cluster.total_cores());
  for (auto& s : samples) {
    s.cpu_fraction = std::min(1.0, s.cpu_fraction / denom);
    s.disk_bytes_per_s /= width;
    s.net_bytes_per_s /= width;
  }
  return samples;
}

SimJob replicate_tasks(const SimJob& job, std::size_t factor) {
  SimJob out;
  out.stages.reserve(job.stages.size());
  for (const auto& stage : job.stages) {
    SimStage s;
    s.name = stage.name;
    s.phase = stage.phase;
    s.tasks.reserve(stage.tasks.size() * factor);
    for (std::size_t f = 0; f < factor; ++f) {
      s.tasks.insert(s.tasks.end(), stage.tasks.begin(), stage.tasks.end());
    }
    out.stages.push_back(std::move(s));
  }
  return out;
}

SimJob scale_job(const SimJob& job, double compute_scale,
                 double bytes_scale) {
  SimJob out = job;
  for (auto& stage : out.stages) {
    for (auto& t : stage.tasks) {
      t.compute_seconds *= compute_scale;
      t.disk_bytes =
          static_cast<std::uint64_t>(static_cast<double>(t.disk_bytes) *
                                     bytes_scale);
      t.cold_disk_bytes = static_cast<std::uint64_t>(
          static_cast<double>(t.cold_disk_bytes) * bytes_scale);
      t.net_bytes = static_cast<std::uint64_t>(
          static_cast<double>(t.net_bytes) * bytes_scale);
    }
  }
  return out;
}

}  // namespace gpf::sim
