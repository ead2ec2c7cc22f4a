#include "exec/backend_factory.hpp"

#include <cstring>
#include <stdexcept>

#include "exec/distributed_backend.hpp"
#include "exec/spilling_backend.hpp"

namespace gpf::exec {
namespace {

unsigned long long parse_number(const std::string& flag,
                                const std::string& value) {
  std::size_t used = 0;
  unsigned long long parsed = 0;
  try {
    parsed = std::stoull(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != value.size() || value.empty()) {
    throw std::invalid_argument(flag + ": expected a number, got '" + value +
                                "'");
  }
  return parsed;
}

}  // namespace

BackendKind parse_backend_kind(const std::string& name) {
  if (name == "inprocess") return BackendKind::kInProcess;
  if (name == "spill") return BackendKind::kSpill;
  if (name == "distributed") return BackendKind::kDistributed;
  throw std::invalid_argument(
      "unknown backend '" + name +
      "' (expected inprocess, spill, or distributed)");
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
        throw std::invalid_argument(flag + ": missing value");
      }
      value = argv[++i];
    }
    if (flag == "--backend") {
      spec.kind = parse_backend_kind(value);
    } else if (flag == "--store-budget") {
      spec.store_budget = static_cast<std::size_t>(
          parse_number(flag, value));
    } else {
      spec.workers = static_cast<int>(parse_number(flag, value));
    }
  }
  argc = out;
  argv[argc] = nullptr;
}

}  // namespace gpf::exec
