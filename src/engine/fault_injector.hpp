// Deterministic fault injection for the dataflow engine.
//
// The paper's resilience story (Sec 4.4: lost tasks recompute from lineage,
// stragglers are absorbed by load balancing) is only testable if something
// can make tasks fail.  The injector is that something: a seeded rule
// engine the executor consults at every task attempt.  All decisions are
// pure functions of (seed, stage, task, attempt) — a splitmix64 hash chain,
// never a shared mutable RNG — so the injected fault pattern is identical
// across runs and independent of thread scheduling.  That is what makes
// the chaos suite bit-reproducible.
//
// Rule kinds:
//  * fail_task      — task k of stage s throws on its first `attempts`
//                     attempts (retries then succeed; attempts=-1 never
//                     recovers and must exhaust the retry budget).
//  * fail_random    — every matching attempt fails with probability p.
//  * delay_task     — the first attempt of task k is delayed by d ms,
//                     faking a straggler; delays at or above the engine's
//                     speculation threshold trigger a speculative copy.
//  * corrupt_block  — the shuffle block (map_task, reduce_block) is
//                     bit-flipped before decode; the reduce task detects
//                     the damage via the block checksum and fails, which
//                     the executor retries like any lost task.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace gpf::engine {

/// Wildcard task / block index for fault rules.
inline constexpr std::size_t kAnyTask = static_cast<std::size_t>(-1);

enum class FaultKind {
  kFailTask,
  kFailRandom,
  kDelayTask,
  kCorruptBlock,
};

/// One injection rule.  Stage matching is by exact stage name (empty
/// matches every stage); task indices are stage-global, i.e. a wide
/// stage's map tasks are [0, n_in) and its reduce tasks [n_in, n_in+n_out).
struct FaultRule {
  FaultKind kind = FaultKind::kFailTask;
  std::string stage;
  std::size_t task = kAnyTask;
  /// Inject only on attempt numbers < `attempts` (-1 = every attempt).
  /// Speculative copies run as attempt -1 and are never injected: they
  /// model re-execution on a different, healthy node.
  int attempts = 1;
  double probability = 1.0;  // kFailRandom
  double delay_ms = 0.0;     // kDelayTask
  std::size_t map_task = kAnyTask;  // kCorruptBlock
  std::size_t block = kAnyTask;     // kCorruptBlock

  static FaultRule fail_task(std::string stage, std::size_t task,
                             int attempts = 1);
  static FaultRule fail_random(std::string stage, double probability,
                               int attempts = 1);
  static FaultRule delay_task(std::string stage, std::size_t task,
                              double delay_ms, int attempts = 1);
  static FaultRule corrupt_block(std::string stage, std::size_t map_task,
                                 std::size_t block, int attempts = 1);
};

/// Thrown by the injector when a rule fails an attempt.
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(const std::string& stage, std::size_t task, int attempt);
};

/// Thrown by the shuffle reduce side when a block fails its checksum or
/// decodes to the wrong record count; treated as a task failure and
/// retried from the pristine encoded block.
class ShuffleBlockError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when a task exhausts its retry budget: the typed stage-failure
/// surface carrying full context (Spark's "Job aborted due to stage
/// failure: Task X in stage Y failed N times").
class StageFailure : public std::runtime_error {
 public:
  StageFailure(std::string stage, std::size_t task, int attempts,
               const std::string& cause);

  const std::string& stage() const { return stage_; }
  std::size_t task() const { return task_; }
  int attempts() const { return attempts_; }

 private:
  std::string stage_;
  std::size_t task_ = 0;
  int attempts_ = 0;
};

/// Parses a chaos/fuzz seed from a decimal string.  Strict: the whole
/// string must be one base-10 unsigned 64-bit integer — empty input,
/// non-numeric text, signs, leading/trailing junk, and overflow all throw
/// std::invalid_argument naming the offending value.  (A malformed
/// GPF_CHAOS_SEED that silently parsed as 0 would pin an entire CI chaos
/// sweep to one seed and report it as ten.)
std::uint64_t parse_seed(std::string_view text);

/// parse_seed() applied to environment variable `name`; `fallback` when
/// the variable is unset.  Malformed values still throw — an unset knob is
/// a default, a broken knob is a bug.
std::uint64_t seed_from_env(const char* name, std::uint64_t fallback);

/// The injector itself.  Thread-safe: decision methods are pure hashes of
/// their arguments, counters are atomic.
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed, std::vector<FaultRule> rules);

  std::uint64_t seed() const { return seed_; }
  const std::vector<FaultRule>& rules() const { return rules_; }

  /// Called once when a stage starts executing; the returned ordinal
  /// decorrelates random draws between same-named stages.  Stages execute
  /// sequentially (the engine is eager), so ordinals are deterministic.
  std::size_t begin_stage(const std::string& name);

  /// Throws InjectedFault if this attempt should fail.  Speculative
  /// attempts (attempt < 0) are never injected.
  void check_attempt(const std::string& stage, std::size_t ordinal,
                     std::size_t task, int attempt);

  /// Straggler delay planned for this attempt, in ms (0 = none).  Pure
  /// query: the executor calls record_injected_delay() when it actually
  /// applies one, so probing for speculation does not skew counters.
  double planned_delay_ms(const std::string& stage, std::size_t ordinal,
                          std::size_t task, int attempt) const;

  /// If a corruption rule matches, returns a bit-flipped copy of `bytes`
  /// (the pristine block is never touched, so a retry can succeed).
  std::optional<std::vector<std::uint8_t>> corrupted_copy(
      const std::string& stage, std::size_t ordinal, std::size_t map_task,
      std::size_t block, int attempt, std::span<const std::uint8_t> bytes);

  void record_injected_delay() { ++delays_; }

  std::size_t injected_failures() const { return failures_.load(); }
  std::size_t injected_delays() const { return delays_.load(); }
  std::size_t injected_corruptions() const { return corruptions_.load(); }
  std::size_t total_injected() const {
    return injected_failures() + injected_delays() + injected_corruptions();
  }

 private:
  /// Deterministic uniform [0,1) draw for (rule, ordinal, task, attempt).
  double draw(std::size_t rule, std::size_t ordinal, std::size_t task,
              int attempt) const;

  std::uint64_t seed_;
  std::vector<FaultRule> rules_;
  std::atomic<std::size_t> next_stage_{0};
  std::atomic<std::size_t> failures_{0};
  std::atomic<std::size_t> delays_{0};
  std::atomic<std::size_t> corruptions_{0};
};

}  // namespace gpf::engine
