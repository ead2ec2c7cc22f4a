// The out-of-core execution backend: wide boundaries spill through the
// chunk store.
//
// Each map task's shuffle output becomes one chunk file (one column per
// reduce block — see store/shuffle_chunk.hpp), written atomically under
// the store's directory; reduce tasks mmap chunks back through the
// ResidencyManager, whose byte budget bounds how many spilled shuffles
// stay resident at once.  A fetched block's handle pins exactly one
// chunk mapping, so the backend completes under budgets far smaller than
// any single shuffle's working set — the budget throttles residency, it
// never deadlocks a scan (the residency layer's contract).  Block
// checksums are still validated by Dataset::shuffle itself; the chunk
// format's per-column fingerprints add at-rest integrity on top.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "core/backend.hpp"
#include "engine/dataset.hpp"
#include "store/chunk_store.hpp"

namespace gpf::exec {

class SpillingShuffleTransport;

struct SpillingBackendOptions {
  engine::EngineConfig engine;
  /// Directory shuffle chunks spill into; empty = a fresh directory under
  /// the system temp dir, removed when the backend is destroyed.
  std::string spill_directory;
  /// Residency byte budget for mapped shuffle chunks; 0 = 256 MiB.
  std::size_t store_budget = 0;
};

class SpillingBackend final : public core::ExecutionBackend {
 public:
  explicit SpillingBackend(SpillingBackendOptions options = {});
  ~SpillingBackend() override;

  const std::string& name() const override;
  engine::Engine& engine() override { return engine_; }

  store::ChunkStore& chunk_store() { return store_; }
  engine::ShuffleTransportStats transport_stats() const;

 protected:
  void begin_plan(const core::PhysicalPlan& plan) override;
  void end_plan(const core::PhysicalPlan& plan) noexcept override;
  core::BackendStageStats counters() override;

 private:
  std::string directory_;
  bool owns_directory_ = false;
  engine::Engine engine_;
  store::ChunkStore store_;
  std::shared_ptr<SpillingShuffleTransport> transport_;
};

}  // namespace gpf::exec
