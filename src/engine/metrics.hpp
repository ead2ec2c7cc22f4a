// Engine metrics: everything the paper's evaluation measures about a run —
// stage counts, per-task compute times, shuffle volume, serialization (our
// GC proxy) — is accumulated here and later replayed on the cluster
// simulator.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace gpf::engine {

/// Metrics for one executed stage.
struct StageMetrics {
  std::string name;
  std::size_t task_count = 0;
  /// Per-task pure-compute seconds, measured on the local thread pool.
  std::vector<double> task_seconds;
  /// Bytes of live input/output records (estimated record footprint).
  std::uint64_t input_bytes = 0;
  std::uint64_t output_bytes = 0;
  /// Serialized bytes written to / read from the shuffle, if this stage
  /// ends in (or begins from) a wide dependency.
  std::uint64_t shuffle_write_bytes = 0;
  std::uint64_t shuffle_read_bytes = 0;
  /// Records moved through the shuffle (map-side, counted once).
  std::uint64_t shuffle_records = 0;
  /// Time spent in (de)serialization for shuffle blocks.
  double serialization_seconds = 0.0;
  /// Wall time of the stage on the local pool.
  double wall_seconds = 0.0;
  /// True when the stage performed a wide (shuffle) dependency.
  bool wide = false;
  /// For wide stages: how many of the tasks are map-side (the first
  /// `map_task_count` entries of task_seconds); the rest are reduce-side.
  std::size_t map_task_count = 0;
  /// Task attempts that failed and were re-executed.
  std::size_t task_retries = 0;
  /// Task attempts that ended in an exception (injected or real),
  /// including the final attempt of an exhausted task.
  std::size_t failed_attempts = 0;
  /// Speculative copies launched for straggling tasks.
  std::size_t speculative_launches = 0;
  /// Faults the injector introduced into this stage (failures, straggler
  /// delays and corrupted shuffle blocks).
  std::size_t injected_faults = 0;
  /// True when the stage aborted after a task exhausted its retry budget
  /// (the stage is still recorded so chaos runs can audit the wreckage).
  bool failed = false;
  /// Task-time percentiles over task_seconds, filled by
  /// finalize_task_stats() when the stage is recorded.
  double task_p50_ms = 0.0;
  double task_p95_ms = 0.0;
  double task_p99_ms = 0.0;

  double total_compute_seconds() const;
  double max_task_seconds() const;
  /// Computes task_p50/p95/p99_ms from task_seconds (10 µs resolution).
  void finalize_task_stats();
};

/// Accumulates stages for one logical job; thread-safe for the per-task
/// updates the executor makes.
class EngineMetrics {
 public:
  /// Appends a finished stage and returns its index.
  std::size_t add_stage(StageMetrics stage);

  const std::vector<StageMetrics>& stages() const { return stages_; }
  std::size_t stage_count() const { return stages_.size(); }

  std::uint64_t total_shuffle_bytes() const;
  std::uint64_t total_shuffle_records() const;
  double total_serialization_seconds() const;
  double total_compute_seconds() const;
  double total_wall_seconds() const;
  std::size_t total_failed_attempts() const;
  std::size_t total_speculative_launches() const;
  std::size_t total_injected_faults() const;

  /// Clears all recorded stages.
  void reset();

 private:
  mutable std::mutex mu_;
  std::vector<StageMetrics> stages_;
};

}  // namespace gpf::engine
