// The out-of-core chunk store: a directory of chunk files plus a
// memory-budgeted residency cache over them.
//
// Writing is atomic (temp file + rename + fsync via fs::atomic_write_file)
// so a crash mid-write leaves either the previous chunk or the new one —
// never a torn file.  A file damaged some other way (truncated or
// overwritten outside the store) is caught by the chunk trailer at open
// time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "store/chunk.hpp"
#include "store/residency.hpp"

namespace gpf::store {

struct ChunkStoreConfig {
  /// Directory chunk files live in; created if absent.
  std::string directory;
  /// Byte budget for resident (mmap'd) chunks.
  std::size_t memory_budget = std::size_t{256} << 20;
};

/// Handle to one written chunk — enough to find and sanity-check it later
/// without opening the file.
struct ChunkRef {
  std::string path;
  std::uint64_t records = 0;
  std::size_t bytes = 0;
};

class ChunkStore {
 public:
  explicit ChunkStore(ChunkStoreConfig config);

  ChunkStore(const ChunkStore&) = delete;
  ChunkStore& operator=(const ChunkStore&) = delete;

  /// Encodes and atomically writes `data` as `<directory>/<name>.gpc`.
  ChunkRef write(const std::string& name, const ChunkData& data);

  /// Opens (or returns the resident mapping of) a chunk.  The handle pins
  /// the mapping for as long as the caller holds it.
  std::shared_ptr<const MappedChunk> open(const std::string& path) {
    return residency_.acquire(path);
  }

  /// The path write() would use for `name`.
  std::string chunk_path(const std::string& name) const;

  ResidencyManager& residency() { return residency_; }
  const ChunkStoreConfig& config() const { return config_; }

 private:
  ChunkStoreConfig config_;
  ResidencyManager residency_;
};

}  // namespace gpf::store
