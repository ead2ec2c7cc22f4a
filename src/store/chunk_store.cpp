#include "store/chunk_store.hpp"

#include <filesystem>

#include "common/fsio.hpp"

namespace gpf::store {

ChunkStore::ChunkStore(ChunkStoreConfig config)
    : config_(std::move(config)), residency_(config_.memory_budget) {
  std::error_code ec;
  std::filesystem::create_directories(config_.directory, ec);
  if (ec) {
    throw ChunkIoError("cannot create chunk directory " + config_.directory +
                       ": " + ec.message());
  }
}

std::string ChunkStore::chunk_path(const std::string& name) const {
  return config_.directory + "/" + name + ".gpc";
}

ChunkRef ChunkStore::write(const std::string& name, const ChunkData& data) {
  const std::vector<std::uint8_t> encoded = encode_chunk(data);
  ChunkRef ref{chunk_path(name), data.records, encoded.size()};
  try {
    fs::atomic_write_file(ref.path, encoded);
  } catch (const std::exception& e) {
    throw ChunkIoError(e.what());
  }
  // A rewrite must not leave a stale mapping of the old file resident.
  residency_.drop(ref.path);
  return ref;
}

}  // namespace gpf::store
