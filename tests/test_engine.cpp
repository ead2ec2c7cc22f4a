// Tests for the dataflow engine: transformations, shuffles, codecs and
// metric recording.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <numeric>
#include <thread>

#include "compress/record_codec.hpp"
#include "core/processes.hpp"
#include "engine/dataset.hpp"
#include "test_codecs.hpp"

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

TEST(Engine, ShuffleRedistributesByKey) {
  Engine engine({.worker_threads = 4});
  auto ds = engine.parallelize(iota_vec(1000), 7)
                .with_codec(tests::pod_codec<int>());
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
  auto ds = engine.parallelize(iota_vec(10), 2)
                .with_codec(tests::pod_codec<int>());
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
  Engine engine({.worker_threads = 2});
  std::vector<SamRecord> records;
  for (int i = 0; i < 100; ++i) {
    SamRecord r;
    r.qname = std::string("r").append(std::to_string(i));
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

TEST(Engine, ShuffleWithoutCodecThrows) {
  // Every shuffle block is encoded, checksummed and count-validated, so a
  // dataset without a codec cannot shuffle: the error names the stage, and
  // no stage is recorded.
  Engine engine({.worker_threads = 2});
  auto ds = engine.parallelize(iota_vec(10), 2);
  try {
    ds.shuffle("codecless", 2,
               [](const int& x) { return static_cast<std::uint64_t>(x); });
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("codecless"), std::string::npos);
  }
  EXPECT_EQ(engine.metrics().stage_count(), 0u);
}

TEST(Engine, EmptyPartitionsFlowThroughGroupBy) {
  // The pipeline groups by shuffling on the key and then collecting each
  // reduce partition; empty inputs must flow through to empty groups.
  Engine engine({.worker_threads = 2});
  auto empty = engine.parallelize(std::vector<int>{}, 4)
                   .with_codec(tests::pod_codec<int>());
  EXPECT_EQ(empty.count(), 0u);
  auto shuffled = empty.shuffle(
      "empty_groups", 3,
      [](const int& x) { return static_cast<std::uint64_t>(x % 3); });
  const auto& stage = engine.metrics().stages().back();
  EXPECT_EQ(stage.task_count, 7u);  // 4 map + 3 reduce tasks
  EXPECT_EQ(stage.shuffle_records, 0u);
  auto grouped = shuffled.map_partitions<std::vector<int>>(
      "empty_groups.collect", [](const std::vector<int>& part) {
        std::map<int, std::vector<int>> groups;
        for (const int x : part) groups[x % 3].push_back(x);
        std::vector<std::vector<int>> out;
        for (auto& [k, g] : groups) out.push_back(std::move(g));
        return out;
      });
  EXPECT_EQ(grouped.partition_count(), 3u);
  EXPECT_EQ(grouped.count(), 0u);
}

TEST(Engine, EmptyPartitionsFlowThroughJoin) {
  // The pipeline's join shape (core/processes.cpp): both sides co-shuffle
  // by key, then partitions zip by index.  An empty side joins to nothing.
  Engine engine({.worker_threads = 2});
  const auto key = [](const int& x) { return static_cast<std::uint64_t>(x); };
  auto left = engine.parallelize(iota_vec(10), 4)
                  .with_codec(tests::pod_codec<int>())
                  .shuffle("empty_join.left", 3, key);
  auto right = engine.parallelize(std::vector<int>{}, 4)
                   .with_codec(tests::pod_codec<int>())
                   .shuffle("empty_join.right", 3, key);
  EXPECT_EQ(right.partition_count(), 3u);
  const auto& right_parts = right.partitions();
  auto joined = left.map_partitions_indexed<int>(
      "empty_join",
      [&right_parts](std::size_t pid, const std::vector<int>& part) {
        std::vector<int> out;
        for (const int x : part) {
          for (const int y : right_parts[pid]) {
            if (x == y) out.push_back(x);
          }
        }
        return out;
      });
  EXPECT_EQ(joined.partition_count(), 3u);
  EXPECT_EQ(joined.count(), 0u);
}

TEST(Engine, WrongLengthCodecDetectedAsShuffleFailure) {
  // A codec whose decode silently drops a record must not corrupt results:
  // the record-count check fails the attempt, and since the bug is
  // deterministic the stage exhausts its retries with a StageFailure.
  Engine engine({.worker_threads = 2, .max_task_retries = 1});
  ShuffleCodec<int> lossy = tests::pod_codec<int>();
  lossy.decode = [](std::span<const std::uint8_t> bytes) {
    std::vector<int> out = tests::pod_codec<int>().decode(bytes);
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
        .with_codec(tests::pod_codec<int>())
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
                     .with_codec(tests::pod_codec<int>())
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
  std::vector<std::uint8_t> bytes;
  codec.encode(std::span<const SamRecord>(records), bytes);
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
    r.qname = std::string("r").append(std::to_string(i));
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

}  // namespace
}  // namespace gpf::engine
