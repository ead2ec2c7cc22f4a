// Bounded free-list of byte buffers shared across engine tasks.
//
// Shuffle map tasks encode every block into a fresh std::vector, which at
// steady state means one large allocation (and one free) per block per
// stage.  The pool recycles those allocations: a task acquires an empty
// buffer that keeps the capacity of a previously released one, encodes
// into it, and the engine returns the storage once the consuming side is
// done with the bytes.
//
// The free list is bounded two ways, and both matter:
//  * a buffer-count cap, so a burst of wide stages cannot park an
//    unbounded number of allocations, and
//  * a byte budget over the *capacities* parked in the list.  Counting
//    buffers alone is not enough — one burst of very wide shuffle blocks
//    would otherwise pin max_buffers x largest-capacity bytes forever,
//    long after the stage that needed them.  Releases that would blow the
//    budget first evict the oldest parked buffers; a single buffer larger
//    than the whole budget is freed outright.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace gpf {

class BufferPool {
 public:
  /// Default byte budget for parked capacity (64 MiB): generous for
  /// steady-state shuffle blocks, small next to a dataset.
  static constexpr std::size_t kDefaultMaxPooledBytes =
      std::size_t{64} << 20;

  explicit BufferPool(std::size_t max_buffers = 64,
                      std::size_t max_pooled_bytes = kDefaultMaxPooledBytes)
      : max_buffers_(max_buffers), max_pooled_bytes_(max_pooled_bytes) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns an empty buffer, reusing the capacity of a released one when
  /// available.
  std::vector<std::uint8_t> acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) return {};
    std::vector<std::uint8_t> buf = std::move(free_.back());
    free_.pop_back();
    pooled_bytes_ -= buf.capacity();
    buf.clear();  // keeps capacity
    ++reuses_;
    return buf;
  }

  /// Donates `buf`'s storage to the pool.  Buffers beyond the count cap or
  /// the byte budget (and buffers with no capacity) are freed; a release
  /// that would overflow the byte budget evicts the oldest parked buffers
  /// first, preferring recently-used capacity like the rest of the engine's
  /// caches.
  void release(std::vector<std::uint8_t>&& buf) {
    const std::size_t cap = buf.capacity();
    if (cap == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.size() >= max_buffers_ || cap > max_pooled_bytes_) return;
    while (!free_.empty() && pooled_bytes_ + cap > max_pooled_bytes_) {
      pooled_bytes_ -= free_.front().capacity();
      free_.erase(free_.begin());
      ++byte_evictions_;
    }
    pooled_bytes_ += cap;
    free_.push_back(std::move(buf));
  }

  /// Number of buffers currently parked in the free list.
  std::size_t pooled() const {
    std::lock_guard<std::mutex> lock(mu_);
    return free_.size();
  }

  /// Total capacity (bytes) currently parked in the free list.
  std::size_t pooled_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pooled_bytes_;
  }

  /// Byte budget the free list is held under.
  std::size_t max_pooled_bytes() const { return max_pooled_bytes_; }

  /// How many acquire() calls were satisfied from the free list.
  std::uint64_t reuse_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reuses_;
  }

  /// How many parked buffers were evicted to keep releases under the byte
  /// budget (does not count releases dropped outright).
  std::uint64_t byte_eviction_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return byte_evictions_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::vector<std::uint8_t>> free_;
  std::size_t max_buffers_;
  std::size_t max_pooled_bytes_;
  std::size_t pooled_bytes_ = 0;
  std::uint64_t reuses_ = 0;
  std::uint64_t byte_evictions_ = 0;
};

}  // namespace gpf
