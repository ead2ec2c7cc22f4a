// Tests for the dataflow engine: transformations, shuffles, codecs and
// metric recording.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <thread>

#include "common/rng.hpp"
#include "compress/record_codec.hpp"
#include "core/processes.hpp"
#include "engine/dataset.hpp"

namespace gpf::engine {
namespace {

std::vector<int> iota_vec(int n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(Engine, ParallelizeSplitsEvenly) {
  Engine engine({.worker_threads = 4});
  auto ds = engine.parallelize(iota_vec(100), 8);
  EXPECT_EQ(ds.partition_count(), 8u);
  EXPECT_EQ(ds.count(), 100u);
  const auto collected = ds.collect();
  EXPECT_EQ(collected.size(), 100u);
  EXPECT_EQ(collected[0], 0);
  EXPECT_EQ(collected[99], 99);
}

TEST(Engine, ParallelizeZeroPartitionsThrows) {
  Engine engine({.worker_threads = 2});
  EXPECT_THROW(engine.parallelize(iota_vec(4), 0), std::invalid_argument);
}

TEST(Engine, MapTransformsEveryElement) {
  Engine engine({.worker_threads = 4});
  auto ds = engine.parallelize(iota_vec(50), 4);
  auto doubled = ds.map("double", [](const int& x) { return x * 2; });
  const auto out = doubled.collect();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(out[i], 2 * i);
}

TEST(Engine, FlatMapExpands) {
  Engine engine({.worker_threads = 2});
  auto ds = engine.parallelize(iota_vec(10), 2);
  auto expanded = ds.flat_map("expand", [](const int& x) {
    return std::vector<int>{x, x};
  });
  EXPECT_EQ(expanded.count(), 20u);
}

TEST(Engine, FilterKeepsMatching) {
  Engine engine({.worker_threads = 2});
  auto ds = engine.parallelize(iota_vec(100), 4);
  auto evens = ds.filter("evens", [](const int& x) { return x % 2 == 0; });
  EXPECT_EQ(evens.count(), 50u);
}

TEST(Engine, ShuffleRedistributesByKey) {
  Engine engine({.worker_threads = 4});
  auto ds = engine.parallelize(iota_vec(1000), 7);
  auto shuffled = ds.shuffle("bykey", 10, [](const int& x) {
    return static_cast<std::uint64_t>(x % 10);
  });
  EXPECT_EQ(shuffled.partition_count(), 10u);
  EXPECT_EQ(shuffled.count(), 1000u);
  // Every partition holds exactly the values with its residue.
  for (std::size_t p = 0; p < 10; ++p) {
    for (const int x : shuffled.partitions()[p]) {
      EXPECT_EQ(static_cast<std::size_t>(x % 10), p);
    }
    EXPECT_EQ(shuffled.partitions()[p].size(), 100u);
  }
}

TEST(Engine, GroupByProducesCompleteGroups) {
  Engine engine({.worker_threads = 4});
  auto ds = engine.parallelize(iota_vec(100), 5);
  auto grouped = ds.group_by("group", 4, [](const int& x) { return x % 7; });
  std::size_t total = 0;
  std::size_t groups = 0;
  for (const auto& part : grouped.partitions()) {
    for (const auto& [key, members] : part) {
      ++groups;
      total += members.size();
      for (const int m : members) EXPECT_EQ(m % 7, key);
    }
  }
  EXPECT_EQ(groups, 7u);
  EXPECT_EQ(total, 100u);
}

TEST(Engine, AggregateSums) {
  Engine engine({.worker_threads = 4});
  auto ds = engine.parallelize(iota_vec(101), 8);
  const int total = ds.aggregate<int>(
      "sum", 0, [](int acc, const int& x) { return acc + x; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(total, 5050);
}

TEST(Engine, MetricsRecordStages) {
  Engine engine({.worker_threads = 2});
  auto ds = engine.parallelize(iota_vec(10), 2);
  ds.map("stage_a", [](const int& x) { return x; });
  ds.shuffle("stage_b", 2, [](const int& x) {
    return static_cast<std::uint64_t>(x);
  });
  const auto& stages = engine.metrics().stages();
  ASSERT_EQ(stages.size(), 2u);  // parallelize records nothing
  EXPECT_EQ(stages[0].name, "stage_a");
  EXPECT_EQ(stages[1].name, "stage_b");
  EXPECT_TRUE(stages[1].wide);
  EXPECT_EQ(stages[1].map_task_count, 2u);
}

TEST(Engine, ShuffleWithCodecMeasuresBytesAndRoundTrips) {
  Engine engine({.worker_threads = 2, .serialize_shuffle = true});
  std::vector<SamRecord> records;
  for (int i = 0; i < 100; ++i) {
    SamRecord r;
    r.qname = "r" + std::to_string(i);
    r.contig_id = 0;
    r.pos = i;
    r.sequence = "ACGTACGT";
    r.quality = "IIIIIIII";
    records.push_back(std::move(r));
  }
  auto ds = engine.parallelize(std::move(records), 4)
                .with_codec(core::make_sam_codec(Codec::kGpf));
  auto shuffled = ds.shuffle("sam", 3, [](const SamRecord& r) {
    return static_cast<std::uint64_t>(r.pos % 3);
  });
  EXPECT_EQ(shuffled.count(), 100u);
  const auto& stage = engine.metrics().stages().back();
  EXPECT_GT(stage.shuffle_write_bytes, 0u);
  EXPECT_EQ(stage.shuffle_write_bytes, stage.shuffle_read_bytes);
  EXPECT_GT(stage.serialization_seconds, 0.0);
  // Records survive the byte round trip.
  auto all = shuffled.collect();
  EXPECT_EQ(all.size(), 100u);
}

TEST(Engine, SerializeShuffleOffStillEstimatesBytes) {
  Engine engine({.worker_threads = 2, .serialize_shuffle = false});
  auto ds = engine.parallelize(iota_vec(100), 4);
  ds.shuffle("ints", 2,
             [](const int& x) { return static_cast<std::uint64_t>(x); });
  const auto& stage = engine.metrics().stages().back();
  EXPECT_EQ(stage.shuffle_write_bytes, 100 * sizeof(int));
}

TEST(Engine, MapPartitionsIndexedSeesIndices) {
  Engine engine({.worker_threads = 2});
  auto ds = engine.parallelize(iota_vec(12), 3);
  auto tagged = ds.map_partitions_indexed<std::size_t>(
      "tag", [](std::size_t idx, const std::vector<int>& part) {
        return std::vector<std::size_t>(part.size(), idx);
      });
  const auto& parts = tagged.partitions();
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (const auto v : parts[p]) EXPECT_EQ(v, p);
  }
}

TEST(Engine, StageMetricsComputeHelpers) {
  StageMetrics s;
  s.task_seconds = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(s.total_compute_seconds(), 6.0);
  EXPECT_DOUBLE_EQ(s.max_task_seconds(), 3.0);
}

TEST(Engine, TaskPercentilesRecordedOnStages) {
  Engine engine({.worker_threads = 4});
  auto ds = engine.parallelize(std::vector<int>(4000, 2), 8)
                .map("p", [](const int& x) { return x; });
  (void)ds;
  const auto& stage = engine.metrics().stages().back();
  EXPECT_GE(stage.task_p95_ms, stage.task_p50_ms);
  EXPECT_GE(stage.task_p99_ms, stage.task_p95_ms);
}

TEST(Engine, NoSpeculativeCopyWithoutInjector) {
  // Speculation keys only on a FaultInjector's planned delays, so a real
  // straggler — one ~100 ms task among fifteen ~1 ms ones — runs once and
  // is waited out.
  Engine engine({.worker_threads = 4});
  std::atomic<int> slow_runs{0};
  std::vector<std::vector<int>> parts(16);
  for (int p = 0; p < 16; ++p) parts[static_cast<std::size_t>(p)] = {p};
  const auto got =
      engine.make_dataset(parts)
          .map_partitions<int>("straggle",
                               [&slow_runs](const std::vector<int>& part) {
                                 const bool slow = part[0] == 0;
                                 if (slow) slow_runs.fetch_add(1);
                                 std::this_thread::sleep_for(
                                     std::chrono::milliseconds(slow ? 100
                                                                    : 1));
                                 return std::vector<int>{part[0] + 100};
                               })
          .collect();
  std::vector<int> want(16);
  std::iota(want.begin(), want.end(), 100);
  EXPECT_EQ(got, want);
  EXPECT_EQ(engine.metrics().stages().back().speculative_launches, 0u);
  EXPECT_EQ(slow_runs.load(), 1);
}

TEST(Engine, MetricsReset) {
  Engine engine({.worker_threads = 1});
  auto ds = engine.parallelize(iota_vec(4), 2);
  ds.map("x", [](const int& v) { return v; });
  EXPECT_GT(engine.metrics().stage_count(), 0u);
  engine.metrics().reset();
  EXPECT_EQ(engine.metrics().stage_count(), 0u);
}


TEST(Engine, FlakyTaskSucceedsViaRetry) {
  Engine engine({.worker_threads = 2, .max_task_retries = 3});
  auto ds = engine.parallelize(iota_vec(8), 4);
  std::atomic<int> failures{2};  // first two attempts anywhere fail
  auto out = ds.map_partitions<int>(
      "flaky", [&failures](const std::vector<int>& part) {
        if (failures.fetch_sub(1) > 0) {
          throw std::runtime_error("transient executor loss");
        }
        return part;
      });
  EXPECT_EQ(out.count(), 8u);
  const auto& stage = engine.metrics().stages().back();
  EXPECT_EQ(stage.task_retries, 2u);
  EXPECT_EQ(stage.failed_attempts, 2u);
  EXPECT_EQ(stage.injected_faults, 0u);  // plain throws, no injector involved
  EXPECT_FALSE(stage.failed);
}

TEST(Engine, RetriesExhaustedPropagatesError) {
  Engine engine({.worker_threads = 2, .max_task_retries = 1});
  auto ds = engine.parallelize(iota_vec(4), 2);
  EXPECT_THROW(ds.map_partitions<int>(
                   "doomed", [](const std::vector<int>&) -> std::vector<int> {
                     throw std::runtime_error("permanent failure");
                   }),
               std::runtime_error);
}

TEST(Engine, ZeroRetriesFailsImmediately) {
  Engine engine({.worker_threads = 1, .max_task_retries = 0});
  auto ds = engine.parallelize(iota_vec(2), 1);
  int attempts = 0;
  EXPECT_THROW(ds.map_partitions<int>(
                   "once", [&attempts](const std::vector<int>&)
                               -> std::vector<int> {
                     ++attempts;
                     throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  EXPECT_EQ(attempts, 1);
}

TEST(Engine, RetryRecomputesFromImmutableInput) {
  // The retried attempt sees the same input partition (lineage
  // recompute), so the result is identical to a clean run.
  Engine engine({.worker_threads = 1, .max_task_retries = 2});
  auto ds = engine.parallelize(iota_vec(10), 2);
  std::atomic<bool> failed_once{false};
  auto out = ds.map_partitions<int>(
      "recompute", [&failed_once](const std::vector<int>& part) {
        if (!failed_once.exchange(true)) {
          throw std::runtime_error("lost task");
        }
        std::vector<int> doubled;
        for (const int x : part) doubled.push_back(2 * x);
        return doubled;
      });
  const auto collected = out.collect();
  ASSERT_EQ(collected.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(collected[i], 2 * i);
}

TEST(Engine, ExhaustionThrowsStageFailureWithContext) {
  // Exhaustion surfaces the typed StageFailure even without an injector.
  Engine engine({.worker_threads = 2, .max_task_retries = 1});
  auto ds = engine.parallelize(iota_vec(4), 2);
  try {
    ds.map_partitions<int>(
        "doomed", [](const std::vector<int>&) -> std::vector<int> {
          throw std::runtime_error("permanent failure");
        });
    FAIL() << "expected StageFailure";
  } catch (const StageFailure& e) {
    EXPECT_EQ(e.stage(), "doomed");
    EXPECT_EQ(e.attempts(), 2);
    EXPECT_NE(std::string(e.what()).find("permanent failure"),
              std::string::npos);
  }
}

TEST(Engine, EmptyPartitionsFlowThroughGroupBy) {
  Engine engine({.worker_threads = 2});
  auto empty = engine.parallelize(std::vector<int>{}, 4);
  EXPECT_EQ(empty.count(), 0u);
  auto grouped =
      empty.group_by("empty_groups", 3, [](const int& x) { return x % 3; });
  EXPECT_EQ(grouped.partition_count(), 3u);
  EXPECT_EQ(grouped.count(), 0u);
}

TEST(Engine, EmptyPartitionsFlowThroughJoin) {
  Engine engine({.worker_threads = 2});
  auto left = engine.parallelize(iota_vec(10), 4);
  auto right = engine.parallelize(std::vector<int>{}, 4);
  auto joined = left.join<int>(
      "empty_join", right, 3, [](const int& x) { return x; },
      [](const int& y) { return y; });
  EXPECT_EQ(joined.partition_count(), 3u);
  EXPECT_EQ(joined.count(), 0u);
}

TEST(Engine, JoinMatchesKeysIncludingDuplicates) {
  Engine engine({.worker_threads = 4});
  // Left: 0..9 keyed by value % 5.  Right: {0,1,2, 0,1,2} keyed by value.
  auto left = engine.parallelize(iota_vec(10), 3);
  auto right = engine.parallelize(std::vector<int>{0, 1, 2, 0, 1, 2}, 2);
  auto joined = left.join<int>(
      "modjoin", right, 4, [](const int& x) { return x % 5; },
      [](const int& y) { return y; });
  // Left values with key in {0,1,2}: {0,5},{1,6},{2,7}; each pairs with two
  // duplicate right records -> 12 pairs.
  auto pairs = joined.collect();
  EXPECT_EQ(pairs.size(), 12u);
  std::size_t key_zero = 0;
  for (const auto& [key, lr] : pairs) {
    EXPECT_EQ(lr.first % 5, key);
    EXPECT_EQ(lr.second, key);
    if (key == 0) ++key_zero;
  }
  EXPECT_EQ(key_zero, 4u);  // {0,5} x two right zeros
}

TEST(Engine, WrongLengthCodecDetectedAsShuffleFailure) {
  // A codec whose decode silently drops a record must not corrupt results:
  // the record-count check fails the attempt, and since the bug is
  // deterministic the stage exhausts its retries with a StageFailure.
  Engine engine({.worker_threads = 2, .max_task_retries = 1});
  ShuffleCodec<int> lossy;
  lossy.encode = [](std::span<const int> xs) {
    std::vector<std::uint8_t> out(xs.size() * sizeof(int));
    if (!out.empty()) std::memcpy(out.data(), xs.data(), out.size());
    return out;
  };
  lossy.decode = [](std::span<const std::uint8_t> bytes) {
    std::vector<int> out(bytes.size() / sizeof(int));
    if (!out.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
    if (!out.empty()) out.pop_back();  // the bug
    return out;
  };
  auto ds = engine.parallelize(iota_vec(40), 2).with_codec(lossy);
  try {
    ds.shuffle("lossy", 2,
               [](const int& x) { return static_cast<std::uint64_t>(x); });
    FAIL() << "expected StageFailure";
  } catch (const StageFailure& e) {
    EXPECT_NE(std::string(e.what()).find("decoded to"), std::string::npos);
  }
}

TEST(Engine, SingleWorkerShuffleOrderIsDeterministic) {
  // With one worker thread the whole pipeline is sequential; two identical
  // runs must produce byte-identical partition layouts (reduce tasks gather
  // map blocks in fixed order, so this also holds multi-threaded).
  auto run = [] {
    Engine engine({.worker_threads = 1});
    return engine.parallelize(iota_vec(123), 7)
        .shuffle("spread", 4,
                 [](const int& x) {
                   return static_cast<std::uint64_t>(x) * 2654435761u;
                 })
        .collect();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  Engine multi({.worker_threads = 4});
  const auto c = multi.parallelize(iota_vec(123), 7)
                     .shuffle("spread", 4,
                              [](const int& x) {
                                return static_cast<std::uint64_t>(x) *
                                       2654435761u;
                              })
                     .collect();
  EXPECT_EQ(a, c);
}


TEST(SamCodec, GpfSerializedFormSmallerThanLiveObjects) {
  // The paper's memory claim: a partition kept as one serialized byte
  // array takes under half the memory of the live records.
  std::vector<SamRecord> records;
  for (int i = 0; i < 500; ++i) {
    SamRecord r;
    r.qname = "read" + std::to_string(i);
    r.contig_id = 0;
    r.pos = i;
    r.sequence = std::string(100, "ACGT"[i % 4]);
    r.quality = std::string(100, 'F');
    r.cigar = {{CigarOp::kMatch, 100}};
    records.push_back(std::move(r));
  }
  std::size_t live = 0;
  for (const auto& r : records) live += live_size(r);
  const ShuffleCodec<SamRecord> codec = core::make_sam_codec(Codec::kGpf);
  const std::vector<std::uint8_t> bytes =
      codec.encode(std::span<const SamRecord>(records));
  EXPECT_LT(bytes.size(), live / 2);
  EXPECT_EQ(codec.decode(bytes), records);
}

// --- buffer pool ------------------------------------------------------------

TEST(BufferPool, RecyclesReleasedCapacity) {
  BufferPool pool(2);
  std::vector<std::uint8_t> a(100, 0xab);
  pool.release(std::move(a));
  EXPECT_EQ(pool.pooled(), 1u);
  auto b = pool.acquire();
  EXPECT_EQ(b.size(), 0u);          // handed back empty...
  EXPECT_GE(b.capacity(), 100u);    // ...but with the old allocation
  EXPECT_EQ(pool.reuse_count(), 1u);
  EXPECT_EQ(pool.pooled(), 0u);
  // Beyond the cap, buffers are dropped instead of parked.
  pool.release(std::vector<std::uint8_t>(8, 1));
  pool.release(std::vector<std::uint8_t>(8, 2));
  pool.release(std::vector<std::uint8_t>(8, 3));
  EXPECT_EQ(pool.pooled(), 2u);
}

TEST(BufferPool, ByteBudgetBoundsParkedCapacity) {
  // Regression: the free list used to be bounded only by buffer count, so
  // one burst of wide blocks parked max_buffers x largest-capacity bytes
  // forever.  The byte budget evicts oldest-first instead.
  BufferPool pool(/*max_buffers=*/64, /*max_pooled_bytes=*/1000);
  std::vector<std::uint8_t> a(400);
  std::vector<std::uint8_t> b(400);
  const std::size_t cap_a = a.capacity();
  const std::size_t cap_b = b.capacity();
  ASSERT_LE(cap_a + cap_b, 1000u);
  pool.release(std::move(a));
  pool.release(std::move(b));
  EXPECT_EQ(pool.pooled(), 2u);
  EXPECT_EQ(pool.pooled_bytes(), cap_a + cap_b);

  // A third release would overflow the budget: the OLDEST buffer (a) is
  // evicted to make room.
  pool.release(std::vector<std::uint8_t>(400));
  EXPECT_EQ(pool.pooled(), 2u);
  EXPECT_LE(pool.pooled_bytes(), pool.max_pooled_bytes());
  EXPECT_EQ(pool.byte_eviction_count(), 1u);

  // Acquiring gives back the newest parked capacity and returns the bytes
  // to the accounting.
  const auto got = pool.acquire();
  EXPECT_GE(got.capacity(), 400u);
  EXPECT_EQ(pool.pooled(), 1u);
  EXPECT_EQ(pool.pooled_bytes(), cap_b);
}

TEST(BufferPool, OversizedBufferIsFreedOutright) {
  BufferPool pool(/*max_buffers=*/4, /*max_pooled_bytes=*/100);
  pool.release(std::vector<std::uint8_t>(64));
  EXPECT_EQ(pool.pooled(), 1u);
  // Larger than the whole budget: dropped, and nothing parked is evicted.
  pool.release(std::vector<std::uint8_t>(500));
  EXPECT_EQ(pool.pooled(), 1u);
  EXPECT_EQ(pool.byte_eviction_count(), 0u);
}

TEST(Engine, ShuffleRecyclesEncodeBuffersThroughPool) {
  Engine engine({.worker_threads = 2});
  std::vector<SamRecord> records;
  for (int i = 0; i < 64; ++i) {
    SamRecord r;
    r.qname = "r" + std::to_string(i);
    r.contig_id = 0;
    r.pos = i;
    r.sequence = "ACGTACGTACGTACGT";
    r.quality = "IIIIIIIIIIIIIIII";
    r.cigar = {{CigarOp::kMatch, 16}};
    records.push_back(std::move(r));
  }
  auto ds = engine.parallelize(records, 4).with_codec(
      core::make_sam_codec(Codec::kKryoLike));
  auto once = ds.shuffle("pool1", 4, [](const SamRecord& r) {
    return static_cast<std::uint64_t>(r.pos);
  });
  // All 4x4 encoded blocks were returned to the pool after the reduce.
  EXPECT_EQ(engine.buffer_pool().pooled(), 16u);
  auto twice = once.shuffle("pool2", 4, [](const SamRecord& r) {
    return static_cast<std::uint64_t>(r.pos / 2);
  });
  EXPECT_GT(engine.buffer_pool().reuse_count(), 0u);
  auto got = twice.collect();
  std::sort(got.begin(), got.end(),
            [](const SamRecord& a, const SamRecord& b) {
              return a.pos < b.pos;
            });
  std::sort(records.begin(), records.end(),
            [](const SamRecord& a, const SamRecord& b) {
              return a.pos < b.pos;
            });
  EXPECT_EQ(got, records);
}


TEST(Engine, SortByProducesGlobalOrder) {
  Engine engine({.worker_threads = 2});
  Rng rng(509);
  std::vector<int> values;
  for (int i = 0; i < 5000; ++i) {
    values.push_back(static_cast<int>(rng.below(100000)));
  }
  auto ds = engine.parallelize(values, 9);
  auto sorted = ds.sort_by("sort", 6, [](const int& x) { return x; });
  EXPECT_EQ(sorted.partition_count(), 6u);
  const auto out = sorted.collect();
  ASSERT_EQ(out.size(), values.size());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  std::sort(values.begin(), values.end());
  EXPECT_EQ(out, values);
}

TEST(Engine, SortByHandlesSkewedKeys) {
  Engine engine({.worker_threads = 2});
  std::vector<int> values(1000, 7);  // all identical keys
  values.push_back(3);
  values.push_back(11);
  auto sorted = engine.parallelize(values, 4)
                    .sort_by("sort", 4, [](const int& x) { return x; });
  const auto out = sorted.collect();
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(out.size(), 1002u);
}

TEST(Engine, CoalesceMergesWithoutLosingRecords) {
  Engine engine({.worker_threads = 2});
  auto ds = engine.parallelize(iota_vec(100), 10);
  auto merged = ds.coalesce("merge", 3);
  EXPECT_EQ(merged.partition_count(), 3u);
  auto out = merged.collect();
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, iota_vec(100));
  // Coalescing to more partitions than exist is a no-op.
  EXPECT_EQ(ds.coalesce("noop", 50).partition_count(), 10u);
}

TEST(Engine, UnionConcatenates) {
  Engine engine({.worker_threads = 2});
  auto a = engine.parallelize(iota_vec(10), 2);
  auto b = engine.parallelize(iota_vec(5), 1);
  auto u = a.union_with(b);
  EXPECT_EQ(u.partition_count(), 3u);
  EXPECT_EQ(u.count(), 15u);
}

}  // namespace
}  // namespace gpf::engine
