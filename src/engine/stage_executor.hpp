// The fault-tolerant stage executor.
//
// Every stage the engine runs — narrow map tasks, shuffle map side, shuffle
// reduce side, aggregates — goes through execute_stage(), which adds three
// behaviours on top of the plain parallel loop the engine used to have:
//
//  * Retries: an attempt that throws is re-executed in place, with no
//    backoff (the input partitions are immutable shared state, so a retry
//    is exactly a lineage recompute) until the task has used max_attempts
//    attempts; exhaustion surfaces as a typed StageFailure carrying
//    stage/task/attempt context, and the partially-executed stage is
//    still recorded in the metrics with `failed = true`.
//
//  * Fault injection: when the engine carries a FaultInjector, each
//    attempt first serves any planned straggler delay, then asks the
//    injector whether it should fail.  All injector decisions are pure
//    hashes of (seed, stage, task, attempt), so the chaos pattern is
//    schedule-independent.
//
//  * Speculative execution: under a FaultInjector, a task whose first
//    attempt is delayed past kSpeculationDelayThresholdMs gets a
//    speculative copy submitted immediately (keyed on the injector's
//    planned delays rather than wall-clock observation so that the
//    speculative_launches counter is deterministic under a fixed chaos
//    seed).  The first finished attempt claims the task; the loser —
//    including a straggler still parked in its injected delay, which waits
//    on the stage's condition variable and is woken on claim or abort — is
//    discarded.  Results are identical because attempts are pure functions
//    of the same immutable inputs.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "engine/fault_injector.hpp"
#include "engine/metrics.hpp"

namespace gpf::engine {

/// Injected first-attempt delays at or above this launch a speculative
/// copy at submission time (paper Sec 4.4 / Spark's spark.speculation).
inline constexpr double kSpeculationDelayThresholdMs = 20.0;

namespace detail {

/// What the current exception says, for StageFailure's message.
inline std::string current_exception_message() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace detail

/// Runs `fn(task, attempt)` for every task in [0, n_tasks), with up to
/// `max_attempts` attempts per task (Engine::task_attempts()), fault
/// injection and speculation as described above.  Task identity seen
/// by the injector and by StageFailure is `task_offset + task` (a wide
/// stage's reduce tasks are offset past its map tasks).  On success the
/// per-task results are returned in order and `stage`'s task_seconds
/// (at [task_offset, task_offset + n_tasks)) plus the retry/failure/
/// speculation counters are filled in; on exhaustion the counters are
/// still accumulated before StageFailure propagates.
template <typename U, typename Fn>
std::vector<U> execute_stage(ThreadPool& pool, int max_attempts,
                             FaultInjector* injector, StageMetrics& stage,
                             std::size_t ordinal, std::size_t n_tasks,
                             std::size_t task_offset, Fn&& fn) {
  std::vector<U> results(n_tasks);
  if (n_tasks == 0) return results;

  std::mutex mu;
  std::condition_variable cv;
  std::size_t open_tasks = n_tasks;
  std::size_t inflight = 0;
  std::exception_ptr error;
  std::atomic<bool> abort{false};
  auto claimed = std::make_unique<std::atomic<bool>[]>(n_tasks);
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> retried{0};
  std::atomic<std::size_t> injected{0};
  std::atomic<std::size_t> speculative{0};
  const std::string& name = stage.name;

  // First finished attempt claims the task and stores its result.
  auto finish_win = [&](std::size_t i, U&& r, double seconds) {
    bool expected = false;
    if (!claimed[i].compare_exchange_strong(expected, true)) return;
    results[i] = std::move(r);
    stage.task_seconds[task_offset + i] = seconds;
    std::lock_guard lock(mu);
    --open_tasks;
    cv.notify_all();
  };

  // Parks the calling attempt for `ms` on the stage's condition variable;
  // a cancelled straggler (its speculative copy won, or the stage
  // aborted) wakes immediately instead of burning its pool thread in a
  // poll loop.
  auto wait_cancelled = [&](double ms, std::size_t i) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(ms));
    std::unique_lock lock(mu);
    cv.wait_until(lock, deadline,
                  [&] { return abort.load() || claimed[i].load(); });
  };

  // The authoritative attempt loop for one task.
  auto primary = [&](std::size_t i) {
    for (int attempt = 0;; ++attempt) {
      if (abort.load() || claimed[i].load()) return;
      Timer t;
      try {
        // The span covers the whole attempt — injected straggler delay,
        // injector verdict and the task body — so stragglers, failed
        // attempts and retries are all visible on the timeline; unwinding
        // through it marks the span failed.
        trace::ScopedSpan span(name, trace::SpanKind::kTask,
                               static_cast<std::int64_t>(task_offset + i),
                               attempt, /*retry=*/attempt > 0,
                               /*speculative=*/false);
        if (injector) {
          const double delay = injector->planned_delay_ms(
              name, ordinal, task_offset + i, attempt);
          if (delay > 0.0) {
            // Attempt 0 delays are counted at submission time (so the
            // counter cannot race a speculative copy finishing first);
            // retry-attempt delays are counted as they are served.
            if (attempt > 0) {
              injected.fetch_add(1);
              injector->record_injected_delay();
            }
            wait_cancelled(delay, i);
            if (abort.load() || claimed[i].load()) return;
          }
          injector->check_attempt(name, ordinal, task_offset + i, attempt);
        }
        U r = fn(i, attempt);
        finish_win(i, std::move(r), t.seconds());
        return;
      } catch (...) {
        if (claimed[i].load()) return;  // a speculative copy already won
        failed.fetch_add(1);
        try {
          throw;
        } catch (const InjectedFault&) {
          injected.fetch_add(1);
        } catch (...) {
        }
        if (attempt + 1 >= max_attempts) {
          auto failure = std::make_exception_ptr(
              StageFailure(name, task_offset + i, attempt + 1,
                           detail::current_exception_message()));
          std::lock_guard lock(mu);
          if (!error) error = std::move(failure);
          abort.store(true);
          cv.notify_all();
          return;
        }
        retried.fetch_add(1);
      }
    }
  };

  // One-shot speculative copy: runs as attempt -1, which the injector
  // never touches (it models a healthy replacement node).  Its failures
  // are ignored — the primary attempt loop is authoritative.
  auto speculative_copy = [&](std::size_t i) {
    if (abort.load() || claimed[i].load()) return;
    Timer t;
    try {
      trace::ScopedSpan span(name, trace::SpanKind::kTask,
                             static_cast<std::int64_t>(task_offset + i),
                             /*attempt=*/-1, /*retry=*/false,
                             /*speculative=*/true);
      U r = fn(i, -1);
      finish_win(i, std::move(r), t.seconds());
    } catch (...) {
    }
  };

  auto submit = [&](auto job) {
    {
      std::lock_guard lock(mu);
      ++inflight;
    }
    pool.submit([&mu, &cv, &inflight, job = std::move(job)] {
      job();
      std::lock_guard lock(mu);
      --inflight;
      cv.notify_all();
    });
  };

  for (std::size_t i = 0; i < n_tasks; ++i) {
    const double planned_delay =
        injector ? injector->planned_delay_ms(name, ordinal, task_offset + i, 0)
                 : 0.0;
    if (planned_delay > 0.0) {
      injected.fetch_add(1);
      injector->record_injected_delay();
    }
    submit([&primary, i] { primary(i); });
    if (planned_delay >= kSpeculationDelayThresholdMs) {
      speculative.fetch_add(1);
      submit([&speculative_copy, i] { speculative_copy(i); });
    }
  }

  {
    std::unique_lock lock(mu);
    cv.wait(lock,
            [&] { return inflight == 0 && (open_tasks == 0 || error); });
  }

  stage.task_retries += retried.load();
  stage.failed_attempts += failed.load();
  stage.injected_faults += injected.load();
  stage.speculative_launches += speculative.load();
  if (error) std::rethrow_exception(error);
  return results;
}

}  // namespace gpf::engine
