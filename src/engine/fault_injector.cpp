#include "engine/fault_injector.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>

namespace gpf::engine {
namespace {

/// splitmix64 finalizer: the same mixing the Rng seeds itself with, used
/// here as a stateless hash so fault decisions need no shared state.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool matches_stage(const FaultRule& rule, const std::string& stage) {
  return rule.stage.empty() || rule.stage == stage;
}

bool matches_attempt(const FaultRule& rule, int attempt) {
  if (attempt < 0) return false;  // speculative copies are never injected
  return rule.attempts < 0 || attempt < rule.attempts;
}

bool matches_task(std::size_t rule_task, std::size_t task) {
  return rule_task == kAnyTask || rule_task == task;
}

}  // namespace

FaultRule FaultRule::fail_task(std::string stage, std::size_t task,
                               int attempts) {
  FaultRule r;
  r.kind = FaultKind::kFailTask;
  r.stage = std::move(stage);
  r.task = task;
  r.attempts = attempts;
  return r;
}

FaultRule FaultRule::fail_random(std::string stage, double probability,
                                 int attempts) {
  FaultRule r;
  r.kind = FaultKind::kFailRandom;
  r.stage = std::move(stage);
  r.probability = probability;
  r.attempts = attempts;
  return r;
}

FaultRule FaultRule::delay_task(std::string stage, std::size_t task,
                                double delay_ms, int attempts) {
  FaultRule r;
  r.kind = FaultKind::kDelayTask;
  r.stage = std::move(stage);
  r.task = task;
  r.delay_ms = delay_ms;
  r.attempts = attempts;
  return r;
}

FaultRule FaultRule::corrupt_block(std::string stage, std::size_t map_task,
                                   std::size_t block, int attempts) {
  FaultRule r;
  r.kind = FaultKind::kCorruptBlock;
  r.stage = std::move(stage);
  r.map_task = map_task;
  r.block = block;
  r.attempts = attempts;
  return r;
}

InjectedFault::InjectedFault(const std::string& stage, std::size_t task,
                             int attempt)
    : std::runtime_error("injected fault: stage '" + stage + "' task " +
                         std::to_string(task) + " attempt " +
                         std::to_string(attempt)) {}

StageFailure::StageFailure(std::string stage, std::size_t task, int attempts,
                           const std::string& cause)
    : std::runtime_error("stage '" + stage + "' failed: task " +
                         std::to_string(task) + " failed " +
                         std::to_string(attempts) + " times; last error: " +
                         cause),
      stage_(std::move(stage)),
      task_(task),
      attempts_(attempts) {}

std::uint64_t parse_seed(std::string_view text) {
  const auto bad = [&text](const char* why) {
    return std::invalid_argument("invalid seed \"" + std::string(text) +
                                 "\": " + why);
  };
  if (text.empty()) throw bad("empty");
  std::uint64_t value = 0;
  const char* const first = text.data();
  const char* const last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value, 10);
  if (ec == std::errc::result_out_of_range) {
    throw bad("does not fit in 64 bits");
  }
  // from_chars already rejects signs, whitespace and non-digits at the
  // front; a partial parse means trailing junk ("123abc", "1 2", "1.5").
  if (ec != std::errc() || ptr != last) {
    throw bad("not a base-10 unsigned integer");
  }
  return value;
}

std::uint64_t seed_from_env(const char* name, std::uint64_t fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr) return fallback;
  try {
    return parse_seed(s);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string(name) + ": " + e.what());
  }
}

FaultInjector::FaultInjector(std::uint64_t seed, std::vector<FaultRule> rules)
    : seed_(seed), rules_(std::move(rules)) {}

std::size_t FaultInjector::begin_stage(const std::string&) {
  return next_stage_.fetch_add(1);
}

double FaultInjector::draw(std::size_t rule, std::size_t ordinal,
                           std::size_t task, int attempt) const {
  std::uint64_t h = mix(seed_ ^ (0xa24baed4963ee407ULL * (rule + 1)));
  h = mix(h ^ (0x9fb21c651e98df25ULL * (ordinal + 1)));
  h = mix(h ^ (0xd6e8feb86659fd93ULL * (task + 1)));
  h = mix(h ^ (0x8bb84b93962eacc9ULL *
               static_cast<std::uint64_t>(attempt + 2)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

void FaultInjector::check_attempt(const std::string& stage,
                                  std::size_t ordinal, std::size_t task,
                                  int attempt) {
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const FaultRule& rule = rules_[r];
    if (!matches_stage(rule, stage) || !matches_attempt(rule, attempt)) {
      continue;
    }
    switch (rule.kind) {
      case FaultKind::kFailTask:
        if (matches_task(rule.task, task)) {
          ++failures_;
          throw InjectedFault(stage, task, attempt);
        }
        break;
      case FaultKind::kFailRandom:
        if (matches_task(rule.task, task) &&
            draw(r, ordinal, task, attempt) < rule.probability) {
          ++failures_;
          throw InjectedFault(stage, task, attempt);
        }
        break;
      default:
        break;
    }
  }
}

double FaultInjector::planned_delay_ms(const std::string& stage,
                                       std::size_t ordinal, std::size_t task,
                                       int attempt) const {
  (void)ordinal;
  double delay = 0.0;
  for (const FaultRule& rule : rules_) {
    if (rule.kind != FaultKind::kDelayTask) continue;
    if (!matches_stage(rule, stage) || !matches_attempt(rule, attempt) ||
        !matches_task(rule.task, task)) {
      continue;
    }
    delay = std::max(delay, rule.delay_ms);
  }
  return delay;
}

std::optional<std::vector<std::uint8_t>> FaultInjector::corrupted_copy(
    const std::string& stage, std::size_t ordinal, std::size_t map_task,
    std::size_t block, int attempt, std::span<const std::uint8_t> bytes) {
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const FaultRule& rule = rules_[r];
    if (rule.kind != FaultKind::kCorruptBlock) continue;
    if (!matches_stage(rule, stage) || !matches_attempt(rule, attempt) ||
        !matches_task(rule.map_task, map_task) ||
        !matches_task(rule.block, block)) {
      continue;
    }
    ++corruptions_;
    if (bytes.empty()) {
      // An empty block corrupts to spurious bytes the checksum rejects.
      return std::vector<std::uint8_t>{0xa5};
    }
    std::vector<std::uint8_t> out(bytes.begin(), bytes.end());
    const std::uint64_t h =
        mix(seed_ ^ mix((r + 1) * 0x2545f4914f6cdd1dULL + ordinal) ^
            (map_task << 20) ^ block ^
            static_cast<std::uint64_t>(attempt + 2));
    out[h % out.size()] ^= 0xa5;
    out[0] ^= 0xff;
    return out;
  }
  return std::nullopt;
}

}  // namespace gpf::engine
