// Name-based backend construction: the one place CLI flags, tests and
// benches go from "--backend spill" to a live ExecutionBackend.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "core/backend.hpp"
#include "engine/dataset.hpp"

namespace gpf::exec {

enum class BackendKind { kInProcess, kSpill, kDistributed };

/// Upper bound on --workers: the distributed backend forks its whole
/// fleet as gpf_worker processes on the local host.
inline constexpr int kMaxWorkers = 256;

struct BackendSpec {
  BackendKind kind = BackendKind::kInProcess;
  engine::EngineConfig engine;
  /// Spill backend: residency byte budget (0 = 256 MiB) and chunk
  /// directory (empty = fresh temp dir).
  std::size_t store_budget = 0;
  std::string spill_directory;
  /// Distributed backend: fleet size (1..kMaxWorkers) and gpf_worker
  /// path (empty = GPF_WORKER_BIN env).
  int workers = 2;
  std::string worker_binary;
};

/// Parses "inprocess" / "spill" / "distributed" (the --backend flag
/// vocabulary); throws std::invalid_argument for anything else.
BackendKind parse_backend_kind(const std::string& name);

/// The flag name for a kind (round-trips parse_backend_kind).
const std::string& backend_kind_name(BackendKind kind);

/// Builds the backend `spec` describes.  The distributed backend spawns
/// its worker fleet here and throws when the worker binary is missing.
std::unique_ptr<core::ExecutionBackend> make_backend(const BackendSpec& spec);

/// Strips the backend CLI flags from argv into `spec`, leaving all other
/// arguments (and their order) untouched:
///
///   --backend {inprocess,spill,distributed}
///   --store-budget BYTES     (spill residency budget, 0 = default)
///   --workers N              (distributed fleet size, 1..kMaxWorkers)
///
/// Both "--flag=value" and "--flag value" forms are accepted.  Numbers
/// are unsigned decimal digits only.  Throws std::invalid_argument, with
/// a "bad <flag> ..." message, on an unknown backend name, a missing
/// value, or a number that is malformed or out of range.
void consume_backend_flags(int& argc, char** argv, BackendSpec& spec);

}  // namespace gpf::exec
