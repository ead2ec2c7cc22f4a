#include "exec/backend_factory.hpp"

#include <limits>
#include <stdexcept>

#include "exec/distributed_backend.hpp"
#include "exec/spilling_backend.hpp"

namespace gpf::exec {
namespace {

/// Parses a flag's unsigned decimal value in [min, max].  Digits only:
/// std::stoull alone would take a sign and wrap "-1" to a huge count.
unsigned long long parse_number(const std::string& flag,
                                const std::string& value,
                                unsigned long long min,
                                unsigned long long max) {
  bool ok = !value.empty() &&
            value.find_first_not_of("0123456789") == std::string::npos;
  unsigned long long parsed = 0;
  if (ok) {
    try {
      parsed = std::stoull(value);
    } catch (const std::out_of_range&) {
      ok = false;
    }
  }
  if (!ok || parsed < min || parsed > max) {
    const std::string range =
        std::to_string(min) + " <= " + flag + " <= " + std::to_string(max);
    throw std::invalid_argument("bad " + flag + " '" + value + "' (want " +
                                range + ")");
  }
  return parsed;
}

}  // namespace

BackendKind parse_backend_kind(const std::string& name) {
  if (name == "inprocess") return BackendKind::kInProcess;
  if (name == "spill") return BackendKind::kSpill;
  if (name == "distributed") return BackendKind::kDistributed;
  throw std::invalid_argument(
      "bad --backend '" + name + "' (want inprocess, spill, or distributed)");
}

const std::string& backend_kind_name(BackendKind kind) {
  static const std::string kInProcess = "inprocess";
  static const std::string kSpill = "spill";
  static const std::string kDistributed = "distributed";
  switch (kind) {
    case BackendKind::kSpill:
      return kSpill;
    case BackendKind::kDistributed:
      return kDistributed;
    case BackendKind::kInProcess:
      break;
  }
  return kInProcess;
}

std::unique_ptr<core::ExecutionBackend> make_backend(const BackendSpec& spec) {
  switch (spec.kind) {
    case BackendKind::kSpill: {
      SpillingBackendOptions options;
      options.engine = spec.engine;
      options.spill_directory = spec.spill_directory;
      options.store_budget = spec.store_budget;
      return std::make_unique<SpillingBackend>(std::move(options));
    }
    case BackendKind::kDistributed: {
      DistributedBackendOptions options;
      options.engine = spec.engine;
      options.workers = spec.workers;
      options.worker_binary = spec.worker_binary;
      return std::make_unique<DistributedBackend>(std::move(options));
    }
    case BackendKind::kInProcess:
      break;
  }
  return std::make_unique<core::EngineBackend>(spec.engine);
}

void consume_backend_flags(int& argc, char** argv, BackendSpec& spec) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string flag, value;
    bool has_value = false;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flag = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    } else {
      flag = arg;
    }
    const bool known = flag == "--backend" || flag == "--store-budget" ||
                       flag == "--workers";
    if (!known) {
      argv[out++] = argv[i];
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        throw std::invalid_argument("bad " + flag + " (missing value)");
      }
      value = argv[++i];
    }
    if (flag == "--backend") {
      spec.kind = parse_backend_kind(value);
    } else if (flag == "--store-budget") {
      constexpr auto kMaxBytes = std::numeric_limits<std::size_t>::max();
      const auto bytes = parse_number(flag, value, 0, kMaxBytes);
      spec.store_budget = static_cast<std::size_t>(bytes);
    } else {
      spec.workers =
          static_cast<int>(parse_number(flag, value, 1, kMaxWorkers));
    }
  }
  argc = out;
  argv[argc] = nullptr;
}

}  // namespace gpf::exec
