#include "exec/spilling_backend.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "store/shuffle_chunk.hpp"

namespace gpf::exec {
namespace {

std::string resolve_spill_directory(const std::string& requested) {
  if (!requested.empty()) return requested;
  static std::atomic<std::uint64_t> counter{0};
  const auto dir = std::filesystem::temp_directory_path() /
                   ("gpf_spill_" + std::to_string(::getpid()) + "_" +
                    std::to_string(counter.fetch_add(1)));
  return dir.string();
}

std::size_t resolve_store_budget(std::size_t requested) {
  return requested != 0 ? requested : std::size_t{256} << 20;
}

}  // namespace

/// The block sink/source over the chunk store.  put_map_output packs one
/// map task's blocks into a chunk and writes it atomically (outside the
/// lock — map tasks spill concurrently); fetch_block acquires the chunk
/// through the residency cache and hands out a column span pinned by the
/// mapping; end_shuffle drops the shuffle's chunks from cache and disk.
class SpillingShuffleTransport final : public engine::ShuffleTransport {
 public:
  explicit SpillingShuffleTransport(store::ChunkStore& store)
      : store_(store) {}

  std::uint64_t begin_shuffle(const std::string&) override {
    std::lock_guard lock(mu_);
    const std::uint64_t id = next_id_++;
    shuffles_[id];
    ++stats_.shuffles;
    return id;
  }

  void put_map_output(
      std::uint64_t shuffle, std::size_t map_task,
      std::vector<std::vector<std::uint8_t>> blocks,
      const std::vector<engine::ShuffleBlockMeta>& meta) override {
    const std::size_t n_blocks = blocks.size();
    std::uint64_t block_bytes = 0;
    for (const auto& b : blocks) block_bytes += b.size();

    const store::ChunkData data =
        store::make_shuffle_chunk(std::move(blocks), meta);
    // A retried/speculative attempt rewrites the chunk with bit-identical
    // content; write() drops any resident mapping of the replaced file.
    const store::ChunkRef ref =
        store_.write(store::shuffle_chunk_name(shuffle, map_task), data);

    std::lock_guard lock(mu_);
    shuffles_.at(shuffle)[map_task] = ref.path;
    stats_.blocks_put += n_blocks;
    stats_.bytes_put += block_bytes;
    stats_.bytes_spilled += ref.bytes;
  }

  engine::ShuffleBlockHandle fetch_block(std::uint64_t shuffle,
                                         std::size_t map_task,
                                         std::size_t reduce_part) override {
    std::string path;
    {
      std::lock_guard lock(mu_);
      const auto it = shuffles_.find(shuffle);
      if (it == shuffles_.end() || it->second.count(map_task) == 0) {
        throw std::runtime_error(
            "spill transport: no chunk for shuffle " +
            std::to_string(shuffle) + " map task " +
            std::to_string(map_task));
      }
      path = it->second.at(map_task);
    }
    // acquire() pins the mapping for as long as the handle is held; the
    // residency budget decides whether it stays cached afterwards.
    std::shared_ptr<const store::MappedChunk> chunk = store_.open(path);
    // column() re-validates the per-column fingerprint on every fetch:
    // at-rest corruption surfaces here as ChunkCorruptionError, failing
    // the reduce attempt just like an in-memory checksum mismatch would.
    const std::span<const std::uint8_t> bytes =
        chunk->view().column(store::block_column(reduce_part));
    {
      std::lock_guard lock(mu_);
      ++stats_.blocks_fetched;
      stats_.bytes_fetched += bytes.size();
    }
    return {bytes, std::move(chunk)};
  }

  void end_shuffle(std::uint64_t shuffle) noexcept override {
    std::map<std::size_t, std::string> paths;
    {
      std::lock_guard lock(mu_);
      const auto it = shuffles_.find(shuffle);
      if (it == shuffles_.end()) return;
      paths = std::move(it->second);
      shuffles_.erase(it);
    }
    for (const auto& [map_task, path] : paths) {
      store_.residency().drop(path);
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
  }

  engine::ShuffleTransportStats stats() const override {
    std::lock_guard lock(mu_);
    return stats_;
  }

 private:
  store::ChunkStore& store_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  /// shuffle id -> (map task -> chunk path).
  std::unordered_map<std::uint64_t, std::map<std::size_t, std::string>>
      shuffles_;
  engine::ShuffleTransportStats stats_;
};

SpillingBackend::SpillingBackend(SpillingBackendOptions options)
    : directory_(resolve_spill_directory(options.spill_directory)),
      owns_directory_(options.spill_directory.empty()),
      engine_(options.engine),
      store_({directory_, resolve_store_budget(options.store_budget)}),
      transport_(std::make_shared<SpillingShuffleTransport>(store_)) {}

SpillingBackend::~SpillingBackend() {
  if (owns_directory_) {
    std::error_code ec;
    std::filesystem::remove_all(directory_, ec);
  }
}

const std::string& SpillingBackend::name() const {
  static const std::string kName = "spill";
  return kName;
}

engine::ShuffleTransportStats SpillingBackend::transport_stats() const {
  return transport_->stats();
}

void SpillingBackend::begin_plan(const core::PhysicalPlan&) {
  engine_.set_shuffle_transport(transport_);
}

void SpillingBackend::end_plan(const core::PhysicalPlan&) noexcept {
  engine_.set_shuffle_transport(nullptr);
}

core::BackendStageStats SpillingBackend::counters() {
  core::BackendStageStats s = ExecutionBackend::counters();
  const store::ResidencyStats r = store_.residency().stats();
  s.residency_hits = r.hits;
  s.residency_misses = r.misses;
  s.residency_evictions = r.evictions;
  return s;
}

}  // namespace gpf::exec
