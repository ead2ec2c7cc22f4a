#include "exec/distributed_backend.hpp"

#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/bytes.hpp"
#include "runtime/worker.hpp"

namespace gpf::exec {
namespace {

std::string resolve_worker_binary(const std::string& requested) {
  if (!requested.empty()) return requested;
  if (const char* env = std::getenv("GPF_WORKER_BIN")) return env;
  throw std::invalid_argument(
      "DistributedBackend: no worker binary (set options.worker_binary or "
      "GPF_WORKER_BIN)");
}

}  // namespace

/// The block sink/source over the worker fleet.  Blocks live in worker
/// BlockStores under the namespace "<stage>#<shuffle-id>"; the driver
/// keeps the encoded blocks + metas of every map task as the lineage
/// cache that makes owner death repairable without recomputing the map.
class DistributedShuffleTransport final : public engine::ShuffleTransport {
 public:
  DistributedShuffleTransport(runtime::WorkerPool& pool, engine::Engine& engine)
      : pool_(pool), engine_(engine) {}

  void set_push_hook(std::function<void(std::size_t, int)> hook) {
    std::lock_guard lock(mu_);
    push_hook_ = std::move(hook);
  }

  std::uint64_t begin_shuffle(const std::string& stage) override {
    std::lock_guard lock(mu_);
    const std::uint64_t id = next_id_++;
    auto& sh = shuffles_[id];
    // Worker-side block namespace: unique per shuffle so two shuffles of
    // the same stage name (e.g. across pipeline runs) never collide.
    sh.ns = stage + "#" + std::to_string(id);
    ++stats_.shuffles;
    return id;
  }

  void put_map_output(
      std::uint64_t shuffle, std::size_t map_task,
      std::vector<std::vector<std::uint8_t>> blocks,
      const std::vector<engine::ShuffleBlockMeta>& meta) override {
    std::string ns;
    {
      std::lock_guard lock(mu_);
      ns = shuffles_.at(shuffle).ns;
    }
    const int worker = push_blocks(ns, map_task, blocks, meta);

    std::uint64_t block_bytes = 0;
    for (const auto& b : blocks) block_bytes += b.size();
    std::function<void(std::size_t, int)> hook;
    {
      std::lock_guard lock(mu_);
      auto& entry = shuffles_.at(shuffle).maps[map_task];
      entry.owner = worker;
      entry.port = pool_.info(worker).port;
      entry.blocks = std::move(blocks);
      entry.meta = meta;
      stats_.blocks_put += entry.blocks.size();
      stats_.bytes_put += block_bytes;
      hook = push_hook_;
    }
    if (hook) hook(map_task, worker);
  }

  engine::ShuffleBlockHandle fetch_block(std::uint64_t shuffle,
                                         std::size_t map_task,
                                         std::size_t reduce_part) override {
    std::string ns;
    int owner = -1;
    std::uint16_t port = 0;
    {
      std::lock_guard lock(mu_);
      auto& sh = shuffles_.at(shuffle);
      ns = sh.ns;
      const auto it = sh.maps.find(map_task);
      if (it == sh.maps.end()) {
        throw std::runtime_error("distributed transport: no map output " +
                                 std::to_string(map_task) + " in shuffle " +
                                 std::to_string(shuffle));
      }
      owner = it->second.owner;
      port = it->second.port;
    }

    const runtime::BlockId id{ns, map_task, reduce_part};
    if (pool_.alive(owner)) {
      try {
        return wrap(runtime::fetch_block_over_wire(port, id));
      } catch (const runtime::MissingBlockError&) {
        // Owner died (or lost the block) between push and fetch: repair
        // from the lineage cache below.
      }
    }

    // Lineage repair: re-push the driver-cached blocks to a live worker
    // and fetch from the new owner.  A copy is pushed (the cache must
    // survive further repairs).
    std::vector<std::vector<std::uint8_t>> blocks;
    std::vector<engine::ShuffleBlockMeta> meta;
    {
      std::lock_guard lock(mu_);
      const auto& entry = shuffles_.at(shuffle).maps.at(map_task);
      blocks = entry.blocks;
      meta = entry.meta;
      ++stats_.lineage_recoveries;
    }
    const int worker = push_blocks(ns, map_task, blocks, meta);
    const std::uint16_t new_port = pool_.info(worker).port;
    {
      std::lock_guard lock(mu_);
      auto& entry = shuffles_.at(shuffle).maps.at(map_task);
      entry.owner = worker;
      entry.port = new_port;
    }
    return wrap(runtime::fetch_block_over_wire(new_port, id));
  }

  void end_shuffle(std::uint64_t shuffle) noexcept override {
    std::string ns;
    {
      std::lock_guard lock(mu_);
      const auto it = shuffles_.find(shuffle);
      if (it == shuffles_.end()) return;
      ns = it->second.ns;
      shuffles_.erase(it);
    }
    // Best-effort broadcast: dead workers took their blocks with them.
    runtime::TaskRequest release;
    release.kind = "release_blocks";
    release.stage = ns;
    ByteWriter w;
    w.str(ns);
    release.payload = w.take();
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      const int worker = static_cast<int>(i);
      if (!pool_.alive(worker)) continue;
      try {
        pool_.dispatch_to(worker, release, &engine_.buffer_pool());
      } catch (const runtime::WorkerLost&) {
      } catch (const std::runtime_error&) {
      }
    }
  }

  engine::ShuffleTransportStats stats() const override {
    std::lock_guard lock(mu_);
    return stats_;
  }

 private:
  struct MapEntry {
    int owner = -1;
    std::uint16_t port = 0;
    /// Lineage cache: the encoded blocks as pushed (reduce order).
    std::vector<std::vector<std::uint8_t>> blocks;
    std::vector<engine::ShuffleBlockMeta> meta;
  };
  struct Shuffle {
    std::string ns;
    std::unordered_map<std::size_t, MapEntry> maps;
  };

  /// Ships one map task's blocks via the `pipeline_stage` task and
  /// returns the worker that took them.  WorkerLost/RemoteTaskError
  /// propagate: a failed push fails the calling attempt, which the stage
  /// executor retries — the transport-level lineage contract.
  int push_blocks(const std::string& ns, std::size_t map_task,
                  const std::vector<std::vector<std::uint8_t>>& blocks,
                  const std::vector<engine::ShuffleBlockMeta>& meta) {
    runtime::TaskRequest req;
    req.kind = "pipeline_stage";
    req.stage = ns;
    req.task = map_task;
    ByteWriter w(engine_.buffer_pool().acquire());
    w.uvarint(blocks.size());
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      w.u64(meta.at(b).checksum);
      w.uvarint(meta.at(b).records);
      w.uvarint(blocks[b].size());
      w.raw(std::span<const std::uint8_t>(blocks[b].data(),
                                          blocks[b].size()));
    }
    req.payload = w.take();
    int worker = -1;
    try {
      pool_.run_task(req, &engine_.buffer_pool(), &worker);
    } catch (...) {
      engine_.buffer_pool().release(std::move(req.payload));
      throw;
    }
    engine_.buffer_pool().release(std::move(req.payload));
    return worker;
  }

  /// Adapts a fetched StoredBlock to a transport handle: the block's
  /// shared bytes are the pin.
  engine::ShuffleBlockHandle wrap(runtime::StoredBlock block) {
    engine::ShuffleBlockHandle handle;
    handle.bytes = std::span<const std::uint8_t>(block.bytes->data(),
                                                 block.bytes->size());
    handle.pin = block.bytes;
    std::lock_guard lock(mu_);
    ++stats_.blocks_fetched;
    stats_.bytes_fetched += handle.bytes.size();
    return handle;
  }

  runtime::WorkerPool& pool_;
  engine::Engine& engine_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, Shuffle> shuffles_;
  engine::ShuffleTransportStats stats_;
  std::function<void(std::size_t, int)> push_hook_;
};

DistributedBackend::DistributedBackend(DistributedBackendOptions options)
    : engine_(options.engine),
      pool_(resolve_worker_binary(options.worker_binary)),
      transport_(
          std::make_shared<DistributedShuffleTransport>(pool_, engine_)) {
  pool_.spawn_local(options.workers);
}

DistributedBackend::~DistributedBackend() = default;

const std::string& DistributedBackend::name() const {
  static const std::string kName = "distributed";
  return kName;
}

engine::ShuffleTransportStats DistributedBackend::transport_stats() const {
  return transport_->stats();
}

void DistributedBackend::set_push_hook(
    std::function<void(std::size_t, int)> hook) {
  transport_->set_push_hook(std::move(hook));
}

void DistributedBackend::begin_plan(const core::PhysicalPlan&) {
  engine_.set_shuffle_transport(transport_);
}

void DistributedBackend::end_plan(const core::PhysicalPlan&) noexcept {
  engine_.set_shuffle_transport(nullptr);
}

}  // namespace gpf::exec
