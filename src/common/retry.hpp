// The single source of truth for retry/backoff knobs over real
// transports.
//
// The net channels and the worker pool's dispatch all describe one idea:
// how many times to try an idempotent operation and how long to wait
// between tries.  They consume a RetryPolicy; layers that need different
// defaults override the values, not the shape.  The engine's stage
// executor takes only an attempt count (EngineConfig::max_task_retries
// + 1): an in-process retry has no transport to decongest, so it never
// backs off.
#pragma once

#include <algorithm>

namespace gpf {

struct RetryPolicy {
  /// Total attempts (first try + retries).  1 = no retry.
  int max_attempts = 3;
  /// Delay before the first retry; doubles per retry up to the cap.
  /// 0 disables backoff (retry immediately).
  int backoff_initial_ms = 10;
  int backoff_max_ms = 500;

  /// Retries remaining after the first attempt.
  int retries() const { return std::max(0, max_attempts - 1); }

  /// The delay to apply after `current_ms` (exponential, capped).
  int next_backoff(int current_ms) const {
    return std::min(std::max(current_ms, 1) * 2, backoff_max_ms);
  }
};

}  // namespace gpf
