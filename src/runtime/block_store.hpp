// In-memory shuffle block store held by each worker process.
//
// The driver pushes each map task's encoded buckets here (the
// pipeline_stage task) and its reduce tasks fetch them back over the
// wire.  Blocks are immutable once stored — fetches hand out shared
// pointers, so a concurrent overwrite (a speculative map copy landing
// twice) can never mutate bytes a reader is streaming.
//
// Keys are namespaced "stage/map_task/reduce_part" (BlockId::key), and the
// stage prefix doubles as the block generation: when a shuffle completes,
// the driver releases its whole namespace so blocks from finished jobs do
// not accumulate across a worker's lifetime and grow its RSS without
// bound.  Release only erases the map entries — bytes stay alive for any
// reader still holding a fetched shared pointer.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace gpf::runtime {

/// One stored block: the encoded bytes plus the integrity metadata the
/// in-process shuffle tracks per block (engine's BlockMeta equivalent).
struct StoredBlock {
  std::shared_ptr<const std::vector<std::uint8_t>> bytes;
  std::uint64_t checksum = 0;
  std::uint64_t records = 0;
};

class BlockStore {
 public:
  void put(const std::string& key, StoredBlock block) {
    std::lock_guard lock(mu_);
    blocks_[key] = std::move(block);
  }

  std::optional<StoredBlock> get(const std::string& key) const {
    std::lock_guard lock(mu_);
    const auto it = blocks_.find(key);
    if (it == blocks_.end()) return std::nullopt;
    return it->second;
  }

  std::size_t count() const {
    std::lock_guard lock(mu_);
    return blocks_.size();
  }

  std::uint64_t total_bytes() const {
    std::lock_guard lock(mu_);
    std::uint64_t n = 0;
    for (const auto& [k, b] : blocks_) n += b.bytes ? b.bytes->size() : 0;
    return n;
  }

  void clear() {
    std::lock_guard lock(mu_);
    blocks_.clear();
  }

  /// Erases every block whose key lives under `stage`'s namespace (the
  /// "stage/" key prefix) and returns the bytes released.  Invoked through
  /// the release_blocks task when the driver's shuffle ends, so completed
  /// shuffles stop pinning worker memory; safe to call repeatedly
  /// (idempotent).
  std::uint64_t release_namespace(const std::string& stage) {
    const std::string prefix = stage + "/";
    std::lock_guard lock(mu_);
    std::uint64_t released = 0;
    for (auto it = blocks_.begin(); it != blocks_.end();) {
      if (it->first.compare(0, prefix.size(), prefix) == 0) {
        released += it->second.bytes ? it->second.bytes->size() : 0;
        it = blocks_.erase(it);
      } else {
        ++it;
      }
    }
    return released;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, StoredBlock> blocks_;
};

}  // namespace gpf::runtime
