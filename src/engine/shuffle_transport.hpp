// The block-sink/source seam between the engine's shuffle and the
// physical storage of shuffle blocks.
//
// Dataset::shuffle always had exactly one physical transport: encoded
// blocks parked in driver memory between the map and reduce stages.  The
// execution backends (src/exec) need the same dataflow over different
// physical substrates — chunk files under a residency budget, or worker
// processes reached over sockets — without the shuffle algorithm, its
// integrity checks, or its metrics changing shape.  ShuffleTransport is
// that boundary:
//
//  * map tasks deposit each finished attempt's encoded blocks with
//    put_map_output() (idempotent: retried and speculative attempts
//    re-deposit bit-identical bytes, because attempts are pure functions
//    of immutable inputs);
//  * reduce tasks read blocks back with fetch_block(), which returns the
//    bytes plus a pin that keeps the backing storage (an mmap, a fetched
//    buffer) alive through decode;
//  * end_shuffle() releases everything once all reduce attempts are done.
//
// Checksums and record counts are validated by the SHUFFLE, not the
// transport — a transport that loses or corrupts a block surfaces as the
// same ShuffleBlockError / retry story the in-memory path has.  A null
// transport (the default) keeps the original in-memory path byte for
// byte.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace gpf::engine {

/// Integrity metadata for one encoded block (map task -> reduce part).
struct ShuffleBlockMeta {
  std::uint64_t checksum = 0;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
};

/// A fetched block: the bytes plus whatever owns them.  `pin` keeps the
/// backing storage (mmap'd chunk, remote-fetch buffer) alive for as long
/// as the caller reads `bytes`.
struct ShuffleBlockHandle {
  std::span<const std::uint8_t> bytes;
  std::shared_ptr<const void> pin;
};

/// Cumulative counters a transport reports; the execution driver diffs
/// snapshots to attribute transport work per pipeline stage.
struct ShuffleTransportStats {
  std::uint64_t shuffles = 0;
  std::uint64_t blocks_put = 0;
  std::uint64_t blocks_fetched = 0;
  std::uint64_t bytes_put = 0;
  std::uint64_t bytes_fetched = 0;
  /// Blocks spilled to disk (spilling transports).
  std::uint64_t bytes_spilled = 0;
  /// Map outputs recovered from the driver-side cache after their owner
  /// was lost (distributed transports) — lineage recovery made visible.
  std::uint64_t lineage_recoveries = 0;
};

class ShuffleTransport {
 public:
  virtual ~ShuffleTransport() = default;

  /// Registers one wide stage; the returned id scopes its blocks.  Called
  /// once per shuffle, before any map task deposits.
  virtual std::uint64_t begin_shuffle(const std::string& stage) = 0;

  /// Deposits one map task's encoded blocks (one per reduce partition, in
  /// reduce-partition order).  May be called more than once for the same
  /// map task (retry or speculative copy that lost the claim race); the
  /// bytes are bit-identical, so last-write-wins is correct.  Throwing
  /// fails the calling map attempt, which the stage executor retries —
  /// the transport-level lineage contract.
  virtual void put_map_output(std::uint64_t shuffle, std::size_t map_task,
                              std::vector<std::vector<std::uint8_t>> blocks,
                              const std::vector<ShuffleBlockMeta>& meta) = 0;

  /// Returns the block map_task produced for reduce_part.  Throwing fails
  /// the calling reduce attempt (retried by the executor); transports
  /// with a lineage cache repair internally first.
  virtual ShuffleBlockHandle fetch_block(std::uint64_t shuffle,
                                         std::size_t map_task,
                                         std::size_t reduce_part) = 0;

  /// All reduce attempts are done (success or stage failure): the
  /// shuffle's blocks can be released.
  virtual void end_shuffle(std::uint64_t shuffle) noexcept = 0;

  virtual ShuffleTransportStats stats() const = 0;
};

}  // namespace gpf::engine
