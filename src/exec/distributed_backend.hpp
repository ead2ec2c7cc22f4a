// The distributed execution backend: wide boundaries cross process
// boundaries.
//
// Lowered stages keep executing their narrow work on the driver's
// engine, but every codec shuffle's blocks are pushed to gpf_worker
// processes via the runtime's `pipeline_stage` task and fetched back
// over the kFetchBlock wire path.  The driver keeps a cache of each map
// task's encoded blocks — the lineage copy.  Fault story, both halves
// riding the engine's existing recovery machinery:
//
//  * a push to a dying worker surfaces as WorkerLost, failing the map
//    attempt; the stage executor recomputes it from immutable inputs
//    (classic lineage recompute) and the retry lands on a live worker;
//  * a fetch from a dead owner is repaired in place: the driver re-pushes
//    the cached blocks to a live worker and fetches from there, counting
//    a lineage_recovery in the transport stats.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "core/backend.hpp"
#include "engine/dataset.hpp"
#include "runtime/worker_pool.hpp"

namespace gpf::exec {

class DistributedShuffleTransport;

struct DistributedBackendOptions {
  engine::EngineConfig engine;
  /// Local worker processes to spawn.
  int workers = 2;
  /// Path to the gpf_worker binary; empty = the GPF_WORKER_BIN
  /// environment variable.
  std::string worker_binary;
};

class DistributedBackend final : public core::ExecutionBackend {
 public:
  /// Spawns the worker fleet; throws when the worker binary is missing
  /// or a worker fails its ready handshake.
  explicit DistributedBackend(DistributedBackendOptions options = {});
  ~DistributedBackend() override;

  const std::string& name() const override;
  engine::Engine& engine() override { return engine_; }

  runtime::WorkerPool& worker_pool() { return pool_; }
  engine::ShuffleTransportStats transport_stats() const;

  /// Test hook: invoked after each successful map-output push with
  /// (map_task, worker index) — chaos tests SIGKILL the owner from here.
  void set_push_hook(std::function<void(std::size_t, int)> hook);

 protected:
  void begin_plan(const core::PhysicalPlan& plan) override;
  void end_plan(const core::PhysicalPlan& plan) noexcept override;

 private:
  engine::Engine engine_;
  runtime::WorkerPool pool_;
  std::shared_ptr<DistributedShuffleTransport> transport_;
};

}  // namespace gpf::exec
