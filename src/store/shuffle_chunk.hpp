// Shuffle blocks as chunks: the codec the spilling backend uses to park
// one map task's shuffle output in the chunk store.
//
// One map task -> one chunk file; one reduce partition -> one column
// (block_column: "b0", "b1", ...).  Reusing the chunk format buys the
// shuffle path everything the store already guarantees: atomic writes,
// torn-write detection at open, and per-column FNV-1a fingerprints so a
// corrupted spill surfaces as a typed ChunkCorruptionError instead of a
// silently wrong decode.  (Dataset::shuffle still validates its own block
// checksum on top — the transport is never trusted.)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/shuffle_transport.hpp"
#include "store/chunk.hpp"

namespace gpf::store {

/// Chunk name for one map task of one shuffle ("shuffle<id>.m<map>").
std::string shuffle_chunk_name(std::uint64_t shuffle, std::size_t map_task);

/// Packs one map task's encoded blocks (reduce-partition order) into a
/// writable chunk.  Blocks are moved in, not copied; `meta[i].records`
/// feeds the chunk's record count.
ChunkData make_shuffle_chunk(std::vector<std::vector<std::uint8_t>> blocks,
                             const std::vector<engine::ShuffleBlockMeta>& meta);

}  // namespace gpf::store
