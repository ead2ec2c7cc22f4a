// The in-memory dataflow engine: a typed, partitioned, eagerly-executed
// dataset abstraction equivalent to the Spark RDD layer GPF builds on.
//
// Differences from Spark that matter for the reproduction:
//  * Execution is eager, one stage per transformation; the *Process-level*
//    DAG optimization the paper contributes lives above this layer in
//    src/core (the engine deliberately stays dumb, like Spark's task
//    runner, so that redundancy elimination is attributable to GPF).
//  * Every stage records metrics (per-task compute seconds, shuffle bytes,
//    serialization time) so a run can be replayed on the cluster simulator
//    at any core count.
//  * Every shuffle round-trips its records through the dataset's codec
//    (Java-like / Kryo-like / GPF), so the bytes a stage reports are the
//    bytes it actually moved, and every block is checksummed and
//    count-validated on the reduce side, whatever the backend.
//  * Stages run on a fault-tolerant executor (engine/stage_executor.hpp):
//    failed attempts retry from their immutable inputs, retry exhaustion
//    surfaces as a typed StageFailure, shuffle blocks are checksummed so
//    corruption is detected and retried, and injected stragglers trigger
//    speculative re-execution.  A seeded FaultInjector (optional, attached
//    to the Engine) makes all of this testable deterministically.
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/checksum.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "engine/fault_injector.hpp"
#include "engine/metrics.hpp"
#include "engine/shuffle_transport.hpp"
#include "engine/stage_executor.hpp"

namespace gpf::engine {

/// Serializer hooks a shuffle round-trips its records through.  `encode`
/// fills `out` (cleared first, capacity reused), so map tasks encode into
/// buffers recycled through the engine's BufferPool.
template <typename T>
struct ShuffleCodec {
  std::function<void(std::span<const T>, std::vector<std::uint8_t>&)> encode;
  std::function<std::vector<T>(std::span<const std::uint8_t>)> decode;

  bool valid() const { return encode != nullptr && decode != nullptr; }
};

/// Engine configuration.
struct EngineConfig {
  /// Local worker threads executing partition tasks (0 = hardware).
  std::size_t worker_threads = 0;
  /// Failed partition tasks are re-executed up to this many times before
  /// the stage fails (Spark re-runs lost tasks from lineage; inputs here
  /// are immutable shared partitions, so a retry is exactly a lineage
  /// recompute).
  int max_task_retries = 2;
};

template <typename T>
class Dataset;

/// Execution context: owns the worker pool and metrics, hands out datasets.
class Engine {
 public:
  explicit Engine(EngineConfig config = {})
      : config_(config), pool_(config.worker_threads) {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const EngineConfig& config() const { return config_; }
  ThreadPool& pool() { return pool_; }
  /// Recycled encode buffers for shuffle blocks.
  BufferPool& buffer_pool() { return buffer_pool_; }
  EngineMetrics& metrics() { return metrics_; }
  const EngineMetrics& metrics() const { return metrics_; }

  /// Attaches a fault injector consulted by every task attempt (nullptr
  /// detaches).  Injection is fully deterministic given the injector's
  /// seed; see engine/fault_injector.hpp.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector) {
    injector_ = std::move(injector);
  }
  FaultInjector* fault_injector() const { return injector_.get(); }

  /// Attaches the physical block sink/source used by shuffles (nullptr
  /// detaches, restoring the in-memory path).  Execution backends install
  /// their transport around a plan run; the engine just routes blocks
  /// through whatever is attached.
  void set_shuffle_transport(std::shared_ptr<ShuffleTransport> transport) {
    transport_ = std::move(transport);
  }
  ShuffleTransport* shuffle_transport() const { return transport_.get(); }

  /// Attempts a task gets before its stage fails (first try + retries).
  int task_attempts() const { return config_.max_task_retries + 1; }

  /// Creates a dataset from pre-partitioned data.
  template <typename T>
  Dataset<T> make_dataset(std::vector<std::vector<T>> partitions);

  /// Creates a dataset by slicing `records` into `num_partitions` evenly.
  template <typename T>
  Dataset<T> parallelize(std::vector<T> records, std::size_t num_partitions);

 private:
  EngineConfig config_;
  ThreadPool pool_;
  EngineMetrics metrics_;
  BufferPool buffer_pool_;
  std::shared_ptr<FaultInjector> injector_;
  std::shared_ptr<ShuffleTransport> transport_;
};

/// A partitioned in-memory collection.  Cheap to copy (partitions are
/// shared and immutable once produced).
template <typename T>
class Dataset {
 public:
  using Partitions = std::vector<std::vector<T>>;

  Dataset() = default;
  Dataset(Engine* engine, std::shared_ptr<Partitions> partitions)
      : engine_(engine), partitions_(std::move(partitions)) {}

  Engine& engine() const { return *engine_; }
  std::size_t partition_count() const { return partitions_->size(); }
  const Partitions& partitions() const { return *partitions_; }

  std::size_t count() const {
    std::size_t n = 0;
    for (const auto& p : *partitions_) n += p.size();
    return n;
  }

  /// Gathers all records into one vector (partition order preserved).
  std::vector<T> collect() const {
    std::vector<T> out;
    out.reserve(count());
    for (const auto& p : *partitions_) {
      out.insert(out.end(), p.begin(), p.end());
    }
    return out;
  }

  /// Attaches the serializer this dataset's shuffles encode through (a
  /// shuffle without one throws).
  Dataset with_codec(ShuffleCodec<T> codec) const {
    Dataset copy = *this;
    copy.codec_ = std::make_shared<ShuffleCodec<T>>(std::move(codec));
    return copy;
  }

  /// Narrow transformation: element-wise map.
  template <typename Fn>
  auto map(const std::string& stage_name, Fn&& fn) const
      -> Dataset<std::decay_t<std::invoke_result_t<Fn, const T&>>> {
    using U = std::decay_t<std::invoke_result_t<Fn, const T&>>;
    return map_partitions<U>(stage_name, [fn](const std::vector<T>& part) {
      std::vector<U> out;
      out.reserve(part.size());
      for (const T& x : part) out.push_back(fn(x));
      return out;
    });
  }

  /// Narrow transformation: element-wise flat map.
  template <typename Fn>
  auto flat_map(const std::string& stage_name, Fn&& fn) const
      -> Dataset<typename std::decay_t<
          std::invoke_result_t<Fn, const T&>>::value_type> {
    using Vec = std::decay_t<std::invoke_result_t<Fn, const T&>>;
    using U = typename Vec::value_type;
    return map_partitions<U>(stage_name, [fn](const std::vector<T>& part) {
      std::vector<U> out;
      for (const T& x : part) {
        Vec ys = fn(x);
        out.insert(out.end(), std::make_move_iterator(ys.begin()),
                   std::make_move_iterator(ys.end()));
      }
      return out;
    });
  }

  /// Narrow transformation over whole partitions.  `fn` receives the input
  /// partition and returns the output partition; it runs once per
  /// partition, in parallel, and per-task compute time is recorded.
  /// Failed tasks are retried per EngineConfig::max_task_retries — input
  /// partitions are immutable, so a retry is a clean lineage recompute —
  /// and retry exhaustion throws a StageFailure.  `fn` may therefore be
  /// invoked more than once (and concurrently, under speculation) for the
  /// same partition; it must be a pure function of its input.
  template <typename U, typename Fn>
  Dataset<U> map_partitions(const std::string& stage_name, Fn&& fn) const {
    return map_partitions_indexed<U>(
        stage_name,
        [&fn](std::size_t, const std::vector<T>& part) { return fn(part); });
  }

  /// Like map_partitions but `fn` also receives the partition index.
  template <typename U, typename Fn>
  Dataset<U> map_partitions_indexed(const std::string& stage_name,
                                    Fn&& fn) const {
    const std::size_t n = partitions_->size();
    StageMetrics stage;
    stage.name = stage_name;
    stage.task_count = n;
    stage.task_seconds.assign(n, 0.0);

    FaultInjector* injector = engine_->fault_injector();
    const std::size_t ordinal =
        injector ? injector->begin_stage(stage_name) : 0;
    Timer wall;
    auto out = std::make_shared<std::vector<std::vector<U>>>();
    try {
      *out = execute_stage<std::vector<U>>(
          engine_->pool(), engine_->task_attempts(), injector, stage, ordinal,
          n, /*task_offset=*/0, [&](std::size_t i, int) {
            return fn(i, (*partitions_)[i]);
          });
    } catch (...) {
      record_stage(std::move(stage), wall, /*failed=*/true);
      throw;
    }
    record_stage(std::move(stage), wall, /*failed=*/false);
    return Dataset<U>(engine_, std::move(out));
  }

  /// Wide transformation: redistribute every record to the output
  /// partition chosen by `part_fn(record) % num_out`.  Every block is
  /// round-tripped through the dataset's codec (a dataset without one
  /// throws std::logic_error) and the encoded volume recorded.  Blocks
  /// carry a checksum and record count; a reduce task that reads a
  /// corrupted block (or whose codec decodes to the wrong length) fails
  /// with ShuffleBlockError and is retried against the pristine bytes.
  template <typename PartFn>
  Dataset shuffle(const std::string& stage_name, std::size_t num_out,
                  PartFn&& part_fn) const {
    if (num_out == 0) throw std::invalid_argument("shuffle: num_out == 0");
    if (!codec_ || !codec_->valid()) {
      throw std::logic_error("shuffle '" + stage_name +
                             "': dataset has no codec (attach one with "
                             "with_codec)");
    }
    const std::size_t n_in = partitions_->size();

    StageMetrics stage;
    stage.name = stage_name;
    stage.task_count = n_in + num_out;
    stage.task_seconds.assign(n_in + num_out, 0.0);
    stage.wide = true;
    stage.map_task_count = n_in;

    FaultInjector* injector = engine_->fault_injector();
    const std::size_t ordinal =
        injector ? injector->begin_stage(stage_name) : 0;
    const int attempts = engine_->task_attempts();

    // When a transport is attached, encoded blocks flow through it instead
    // of parking in driver memory; the algorithm, validation and metrics
    // below are identical either way.
    ShuffleTransport* transport = engine_->shuffle_transport();
    const std::uint64_t shuffle_id =
        transport ? transport->begin_shuffle(stage_name) : 0;

    // Shared names for the per-block (de)serialization spans, so the
    // per-task recording sites only copy, never concatenate.
    const std::string ser_name = stage_name + ".ser";
    const std::string deser_name = stage_name + ".deser";

    struct MapOut {
      std::vector<std::vector<std::uint8_t>> encoded;
      /// Integrity metadata recorded per block on the map side; kept
      /// driver-side even under a transport, so validation never trusts
      /// the transport's copy of the metadata.
      std::vector<ShuffleBlockMeta> meta;
      std::uint64_t write_bytes = 0;
      double ser_seconds = 0.0;
    };

    // Map side: bucket each input partition into num_out blocks.
    Timer wall;
    std::vector<MapOut> map_outs;
    try {
      map_outs = execute_stage<MapOut>(
          engine_->pool(), attempts, injector, stage, ordinal, n_in,
          /*task_offset=*/0, [&](std::size_t i, int) {
            std::vector<std::vector<T>> buckets(num_out);
            for (const auto& x : (*partitions_)[i]) {
              buckets[part_fn(x) % num_out].push_back(x);
            }
            MapOut out;
            Timer ser;
            trace::ScopedSpan ser_span(ser_name, trace::SpanKind::kShuffleSer,
                                       static_cast<std::int64_t>(i));
            out.encoded.resize(num_out);
            out.meta.resize(num_out);
            for (std::size_t b = 0; b < num_out; ++b) {
              // Encode into a recycled buffer: steady-state shuffles stop
              // allocating one fresh vector per block.
              out.encoded[b] = engine_->buffer_pool().acquire();
              codec_->encode(
                  std::span<const T>(buckets[b].data(), buckets[b].size()),
                  out.encoded[b]);
              out.meta[b] = {fnv1a64(out.encoded[b]), buckets[b].size(),
                             out.encoded[b].size()};
              out.write_bytes += out.encoded[b].size();
              buckets[b].clear();
              buckets[b].shrink_to_fit();
            }
            out.ser_seconds = ser.seconds();
            if (transport) {
              // Hand the bytes to the physical layer; the meta stays here
              // for reduce-side validation.  A transport failure fails
              // this attempt, and the executor's retry re-encodes from the
              // immutable input partition (lineage recompute).
              transport->put_map_output(shuffle_id, i, std::move(out.encoded),
                                        out.meta);
              out.encoded.clear();
            }
            return out;
          });
    } catch (...) {
      if (transport) transport->end_shuffle(shuffle_id);
      record_stage(std::move(stage), wall, /*failed=*/true);
      throw;
    }

    // Reduce side: gather blocks per output partition.  Attempts only read
    // the shared map output (no moves), so retries and speculative copies
    // always see pristine blocks.
    struct ReduceOut {
      std::vector<T> records;
      std::uint64_t read_bytes = 0;
      double ser_seconds = 0.0;
    };
    std::atomic<std::size_t> corruptions{0};
    std::vector<ReduceOut> reduce_outs;
    try {
      reduce_outs = execute_stage<ReduceOut>(
          engine_->pool(), attempts, injector, stage, ordinal, num_out,
          /*task_offset=*/n_in, [&](std::size_t b, int attempt) {
            ReduceOut out;
            Timer ser;
            trace::ScopedSpan deser_span(deser_name,
                                         trace::SpanKind::kShuffleDeser,
                                         static_cast<std::int64_t>(n_in + b));
            for (std::size_t i = 0; i < n_in; ++i) {
              const ShuffleBlockMeta& meta = map_outs[i].meta[b];
              ShuffleBlockHandle handle;
              std::span<const std::uint8_t> block;
              if (transport) {
                handle = transport->fetch_block(shuffle_id, i, b);
                block = handle.bytes;
              } else {
                const auto& encoded = map_outs[i].encoded[b];
                block = std::span<const std::uint8_t>(encoded.data(),
                                                      encoded.size());
              }
              out.read_bytes += block.size();
              std::optional<std::vector<std::uint8_t>> corrupted;
              if (injector) {
                corrupted = injector->corrupted_copy(stage_name, ordinal, i, b,
                                                     attempt, block);
                if (corrupted) {
                  corruptions.fetch_add(1);
                  block = std::span<const std::uint8_t>(corrupted->data(),
                                                        corrupted->size());
                }
              }
              if (fnv1a64(block) != meta.checksum) {
                throw ShuffleBlockError(
                    "shuffle block " + std::to_string(i) + "->" +
                    std::to_string(b) + " of stage '" + stage_name +
                    "' failed its checksum");
              }
              auto records = codec_->decode(block);
              if (records.size() != meta.records) {
                throw ShuffleBlockError(
                    "shuffle block " + std::to_string(i) + "->" +
                    std::to_string(b) + " of stage '" + stage_name +
                    "' decoded to " + std::to_string(records.size()) +
                    " records, expected " + std::to_string(meta.records));
              }
              out.records.insert(out.records.end(),
                                 std::make_move_iterator(records.begin()),
                                 std::make_move_iterator(records.end()));
            }
            out.ser_seconds = ser.seconds();
            return out;
          });
    } catch (...) {
      if (transport) transport->end_shuffle(shuffle_id);
      stage.injected_faults += corruptions.load();
      record_stage(std::move(stage), wall, /*failed=*/true);
      throw;
    }
    stage.injected_faults += corruptions.load();

    auto out = std::make_shared<Partitions>(num_out);
    for (std::size_t b = 0; b < num_out; ++b) {
      (*out)[b] = std::move(reduce_outs[b].records);
    }

    for (const auto& m : map_outs) {
      stage.shuffle_write_bytes += m.write_bytes;
      stage.serialization_seconds += m.ser_seconds;
      for (const auto& meta : m.meta) stage.shuffle_records += meta.records;
    }
    for (const auto& r : reduce_outs) {
      stage.shuffle_read_bytes += r.read_bytes;
      stage.serialization_seconds += r.ser_seconds;
    }
    // All reduce attempts (including speculative copies) are done, so the
    // blocks can be released — to the transport, or (in-memory path)
    // recycled through the buffer pool for the next stage.
    if (transport) {
      transport->end_shuffle(shuffle_id);
    } else {
      for (auto& m : map_outs) {
        for (auto& blk : m.encoded) {
          engine_->buffer_pool().release(std::move(blk));
        }
      }
    }
    record_stage(std::move(stage), wall, /*failed=*/false);

    Dataset result(engine_, std::move(out));
    result.codec_ = codec_;
    return result;
  }

  /// Fold all records into a single value (associative `op`).
  template <typename U, typename Fold, typename Combine>
  U aggregate(const std::string& stage_name, U init, Fold&& fold,
              Combine&& combine) const {
    const std::size_t n = partitions_->size();
    StageMetrics stage;
    stage.name = stage_name;
    stage.task_count = n;
    stage.task_seconds.assign(n, 0.0);

    FaultInjector* injector = engine_->fault_injector();
    const std::size_t ordinal =
        injector ? injector->begin_stage(stage_name) : 0;
    Timer wall;
    std::vector<U> partials;
    try {
      partials = execute_stage<U>(
          engine_->pool(), engine_->task_attempts(), injector, stage, ordinal,
          n, /*task_offset=*/0, [&](std::size_t i, int) {
            U acc = init;
            for (const auto& x : (*partitions_)[i]) {
              acc = fold(std::move(acc), x);
            }
            return acc;
          });
    } catch (...) {
      record_stage(std::move(stage), wall, /*failed=*/true);
      throw;
    }
    record_stage(std::move(stage), wall, /*failed=*/false);
    U result = init;
    for (auto& p : partials) result = combine(std::move(result), std::move(p));
    return result;
  }

 private:
  /// Stamps the wall time and files the stage with the engine — also for
  /// failed stages, so chaos runs can audit retry/fault accounting.
  void record_stage(StageMetrics&& stage, const Timer& wall,
                    bool failed) const {
    stage.wall_seconds = wall.seconds();
    stage.failed = failed;
    stage.finalize_task_stats();
    trace::TraceRecorder& recorder = trace::TraceRecorder::global();
    if (recorder.enabled()) {
      trace::Span span;
      span.name = stage.name;
      span.kind = trace::SpanKind::kStage;
      span.dur_us = stage.wall_seconds * 1e6;
      span.start_us = recorder.now_us() - span.dur_us;
      span.failed = stage.failed;
      recorder.record(std::move(span));
    }
    engine_->metrics().add_stage(std::move(stage));
  }

  Engine* engine_ = nullptr;
  std::shared_ptr<Partitions> partitions_;
  std::shared_ptr<ShuffleCodec<T>> codec_;
};

template <typename T>
Dataset<T> Engine::make_dataset(std::vector<std::vector<T>> partitions) {
  return Dataset<T>(this, std::make_shared<std::vector<std::vector<T>>>(
                              std::move(partitions)));
}

template <typename T>
Dataset<T> Engine::parallelize(std::vector<T> records,
                               std::size_t num_partitions) {
  if (num_partitions == 0) {
    throw std::invalid_argument("parallelize: num_partitions == 0");
  }
  std::vector<std::vector<T>> parts(num_partitions);
  const std::size_t total = records.size();
  const std::size_t chunk = (total + num_partitions - 1) / num_partitions;
  std::size_t at = 0;
  for (std::size_t p = 0; p < num_partitions && at < total; ++p) {
    const std::size_t end = std::min(total, at + chunk);
    parts[p].assign(std::make_move_iterator(records.begin() + at),
                    std::make_move_iterator(records.begin() + end));
    at = end;
  }
  return make_dataset(std::move(parts));
}

}  // namespace gpf::engine
