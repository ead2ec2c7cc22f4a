// Unit tests for src/common: thread pool, RNG, byte serialization,
// histogram, formatting, SIMD level cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <future>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"

namespace gpf {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmpty) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Regression: a parallel_for issued from inside a pool worker used to
  // enqueue its chunks behind the very workers blocked waiting on them.
  // With one worker the old code deadlocked instantly; the fix runs
  // nested loops inline on the calling worker.
  ThreadPool pool(1);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(8, [&](std::size_t outer) {
    EXPECT_TRUE(pool.on_worker_thread());
    pool.parallel_for(8, [&](std::size_t inner) {
      hits[outer * 8 + inner]++;
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedParallelForMultiWorker) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(16, [&](std::size_t) {
    pool.parallel_for(16, [&](std::size_t) { total++; });
  });
  EXPECT_EQ(total.load(), 256);
}

TEST(ThreadPool, ParallelForPropagatesExceptionAndStaysUsable) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(100, [&](std::size_t i) {
      if (i == 37) throw std::runtime_error("boom at 37");
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
  // The pool survives a throwing loop.
  std::atomic<int> after{0};
  pool.parallel_for(16, [&](std::size_t) { after++; });
  EXPECT_EQ(after.load(), 16);
}

TEST(ThreadPool, ParallelForDrainsEveryChunkBeforePropagating) {
  // Regression: parallel_for used to rethrow as soon as the first failed
  // future was reaped, returning while queued chunks still referenced the
  // caller's `fn` — whose lifetime ends with the unwinding stack frame (a
  // use-after-free once a worker scheduled them).  The fix drains every
  // chunk first, so by the time the exception escapes, every index either
  // ran or sat in the throwing chunk.
  ThreadPool pool(2);
  const std::size_t n = 64;
  // Chunk layout mirrors the implementation: min(n, size()*4) blocks.
  const std::size_t blocks = std::min<std::size_t>(n, 2 * 4);
  const std::size_t chunk = (n + blocks - 1) / blocks;
  std::atomic<std::size_t> completed{0};
  try {
    pool.parallel_for(n, [&](std::size_t i) {
      // Throw at the LAST index of the first chunk so every other index
      // must have completed by the time the failure propagates.
      if (i == chunk - 1) throw std::runtime_error("chunk 0 fails");
      completed++;
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(completed.load(), n - 1);
}

TEST(ThreadPool, ParallelForFirstSubmittedExceptionWins) {
  ThreadPool pool(2);
  const std::size_t n = 64;
  try {
    pool.parallel_for(n, [&](std::size_t i) {
      if (i == 0) throw std::runtime_error("first chunk");
      if (i == n - 1) throw std::logic_error("last chunk");
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    // Futures are reaped in submission order, so the earliest-submitted
    // chunk's exception is the one that propagates.
    EXPECT_NE(std::string(e.what()).find("first"), std::string::npos);
  }
}

TEST(ThreadPool, NestedParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(4,
                                 [&](std::size_t) {
                                   pool.parallel_for(4, [&](std::size_t j) {
                                     if (j == 3) {
                                       throw std::invalid_argument("inner");
                                     }
                                   });
                                 }),
               std::invalid_argument);
}

TEST(ThreadPool, OnWorkerThreadFalseOutside) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.on_worker_thread());
  auto f = pool.submit([&] { return pool.on_worker_thread(); });
  EXPECT_TRUE(f.get());
}

TEST(ThreadPool, ManyConcurrentSubmitters) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futs;
  futs.reserve(256);
  for (int i = 0; i < 256; ++i) {
    futs.push_back(pool.submit([&sum] { sum++; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(sum.load(), 256);
}

TEST(ThreadPoolWorkStealing, SkewedSubmissionDrainsAcrossWorkers) {
  // All heavy tasks land on one deque via round-robin bursts; idle
  // workers must steal them for the batch to finish promptly.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 64; ++i) {
    futs.push_back(pool.submit([&ran] {
      ran.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolWorkStealing, WorkerLocalSubmissionsVisibleToThieves) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  // A worker task fans out subtasks onto its own deque; other workers
  // must be able to steal them.
  pool.submit([&] {
      std::vector<std::future<void>> inner;
      for (int i = 0; i < 32; ++i) {
        inner.push_back(pool.submit([&ran] {
          ran.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }));
      }
      for (auto& f : inner) f.get();
    }).get();
  EXPECT_EQ(ran.load(), 32);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalHasUnitVarianceRoughly) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(Bytes, FixedWidthRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i32(-42);
  w.i64(-1LL << 40);
  w.f32(1.5f);
  w.f64(-2.25);
  ByteReader r(std::span(w.bytes().data(), w.bytes().size()));
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1LL << 40);
  EXPECT_EQ(r.f32(), 1.5f);
  EXPECT_EQ(r.f64(), -2.25);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, VarintRoundTripProperty) {
  Rng rng(17);
  ByteWriter w;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 500; ++i) {
    // Mix small and large magnitudes.
    const int bits = static_cast<int>(rng.below(64));
    const std::uint64_t v = rng.next() >> bits;
    values.push_back(v);
    w.uvarint(v);
  }
  ByteReader r(std::span(w.bytes().data(), w.bytes().size()));
  for (const auto v : values) EXPECT_EQ(r.uvarint(), v);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, SignedVarintRoundTrip) {
  ByteWriter w;
  const std::int64_t cases[] = {0, -1, 1, 63, -64, 1000000, -1000000,
                                INT64_MAX, INT64_MIN + 1};
  for (const auto v : cases) w.svarint(v);
  ByteReader r(std::span(w.bytes().data(), w.bytes().size()));
  for (const auto v : cases) EXPECT_EQ(r.svarint(), v);
}

TEST(Bytes, SmallVarintsAreOneByte) {
  ByteWriter w;
  w.uvarint(127);
  EXPECT_EQ(w.size(), 1u);
}

TEST(Bytes, StringRoundTrip) {
  ByteWriter w;
  w.str("hello");
  w.str("");
  w.str(std::string(1000, 'x'));
  ByteReader r(std::span(w.bytes().data(), w.bytes().size()));
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), std::string(1000, 'x'));
}

TEST(Bytes, TruncatedInputThrows) {
  ByteWriter w;
  w.u64(1);
  ByteReader r(std::span(w.bytes().data(), 3));
  EXPECT_THROW(r.u64(), std::out_of_range);
}

TEST(Bytes, HugeLengthNearSizeMaxThrows) {
  // A varint-decoded length near SIZE_MAX must not wrap the bounds check
  // (pos_ + n) and hand out a view past the end of the buffer.
  for (const std::uint64_t n :
       {std::uint64_t{SIZE_MAX}, std::uint64_t{SIZE_MAX} - 1,
        std::uint64_t{SIZE_MAX} - 2}) {
    ByteWriter w;
    w.u8(0x11);
    w.uvarint(n);
    w.u8(0x22);
    ByteReader r(std::span(w.bytes().data(), w.bytes().size()));
    ASSERT_EQ(r.u8(), 0x11);
    EXPECT_THROW(r.str(), std::out_of_range) << n;

    ByteReader raw_reader(std::span(w.bytes().data(), w.bytes().size()));
    raw_reader.u8();
    raw_reader.uvarint();
    EXPECT_THROW(raw_reader.raw(static_cast<std::size_t>(n)),
                 std::out_of_range)
        << n;
    EXPECT_EQ(raw_reader.remaining(), 1u);
  }
}

TEST(Histogram, BasicCountsAndFractions) {
  Histogram h;
  h.add(5, 3);
  h.add(7);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(5), 3u);
  EXPECT_DOUBLE_EQ(h.fraction(5), 0.75);
  EXPECT_EQ(h.min_key(), 5);
  EXPECT_EQ(h.max_key(), 7);
}

TEST(Histogram, MeanAndPercentile) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(i);
  EXPECT_NEAR(h.mean(), 50.5, 1e-9);
  EXPECT_EQ(h.percentile(0.5), 50);
  EXPECT_EQ(h.percentile(1.0), 100);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a, b;
  a.add(1, 2);
  b.add(1, 3);
  b.add(2, 1);
  a.merge(b);
  EXPECT_EQ(a.count(1), 5u);
  EXPECT_EQ(a.count(2), 1u);
}

TEST(Histogram, EmptyThrowsOnStats) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_THROW(h.min_key(), std::logic_error);
  EXPECT_THROW(h.percentile(0.5), std::logic_error);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Format, Durations) {
  EXPECT_EQ(format_duration(0.5), "500ms");
  EXPECT_EQ(format_duration(12.0), "12.00s");
  EXPECT_EQ(format_duration(24 * 60.0), "24m00.0s");
}

TEST(Format, DurationsRollMinutesIntoHours) {
  // Regression: 3 hours used to print as "180m00.0s".
  EXPECT_EQ(format_duration(3 * 3600.0), "3h00m00.0s");
  EXPECT_EQ(format_duration(3661.5), "1h01m01.5s");
  EXPECT_EQ(format_duration(26 * 3600.0 + 5 * 60.0 + 9.0), "26h05m09.0s");
  EXPECT_EQ(format_duration(59 * 60.0 + 59.9), "59m59.9s");
}

TEST(Format, DurationsHandleNegativeAndNonFinite) {
  // Regression: negatives misformatted ("-0ms", garbage minute counts)
  // and NaN printed "nanms".
  EXPECT_EQ(format_duration(-12.0), "-12.00s");
  EXPECT_EQ(format_duration(-3 * 3600.0), "-3h00m00.0s");
  EXPECT_EQ(format_duration(std::nan("")), "nan");
  EXPECT_EQ(format_duration(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(format_duration(-std::numeric_limits<double>::infinity()),
            "-inf");
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(500), "500B");
  EXPECT_EQ(format_bytes(20'000'000'000ULL), "20.0GB");
}

// --- GPF_SIMD_MAX ------------------------------------------------------------

TEST(SimdLevelCap, EveryLevelNameCapsAtThatLevel) {
  EXPECT_EQ(simd::parse_level_cap("scalar"), simd::Level::kScalar);
  EXPECT_EQ(simd::parse_level_cap("sse4"), simd::Level::kSse4);
  EXPECT_EQ(simd::parse_level_cap("avx2"), simd::Level::kAvx2);
  EXPECT_EQ(simd::parse_level_cap("avx512"), simd::Level::kAvx512);
}

TEST(SimdLevelCap, EmptyValueMeansNoCap) {
  EXPECT_EQ(simd::parse_level_cap(""), simd::Level::kAvx512);
}

TEST(SimdLevelCap, UnknownValueThrows) {
  // A typo or a bare "1" must not silently mean "no cap".
  for (const char* bad : {"1", "0", "AVX2", "avx", "avx2 ", " scalar",
                          "avx512f", "none"}) {
    EXPECT_THROW(simd::parse_level_cap(bad), std::invalid_argument) << bad;
  }
}

TEST(SimdLevelCap, ActiveLevelIsDetectedLevelUnderTheCap) {
  const char* cap = std::getenv("GPF_SIMD_MAX");
  EXPECT_EQ(simd::active_level(),
            std::min(simd::detect_level(),
                     simd::parse_level_cap(cap != nullptr ? cap : "")));
}

}  // namespace
}  // namespace gpf
