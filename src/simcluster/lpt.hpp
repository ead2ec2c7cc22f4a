// Longest-processing-time-first list scheduling onto identical slots:
// how the cluster simulator places a recorded stage's tasks on cores.
// LPT is a 4/3-approximation of optimal makespan and, with the slot-id
// tie break, fully deterministic.
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <queue>
#include <span>
#include <utility>
#include <vector>

namespace gpf::sim {

/// Schedules `costs` (seconds per task) LPT onto `slots` identical slots
/// starting at time `start`; returns the stage end time and records each
/// placement via `on_task(idx, start_time, duration, slot)`.
template <typename OnTask>
double lpt_schedule(std::span<const double> costs, std::size_t slots,
                    double start, OnTask&& on_task) {
  if (costs.empty() || slots == 0) return start;
  // LPT: process longest tasks first for a tight makespan bound.
  std::vector<std::size_t> order(costs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return costs[a] > costs[b];
                   });
  // Min-heap of (free time, slot id); slot ids keep ties deterministic
  // and give timeline exports a stable per-core track.
  std::priority_queue<std::pair<double, std::size_t>,
                      std::vector<std::pair<double, std::size_t>>,
                      std::greater<>>
      free_at;
  const std::size_t used = std::min(slots, costs.size());
  for (std::size_t i = 0; i < used; ++i) free_at.emplace(start, i);
  double end = start;
  for (const std::size_t idx : order) {
    const auto [t0, slot] = free_at.top();
    free_at.pop();
    const double dur = costs[idx];
    on_task(idx, t0, dur, slot);
    free_at.emplace(t0 + dur, slot);
    end = std::max(end, t0 + dur);
  }
  return end;
}

}  // namespace gpf::sim
