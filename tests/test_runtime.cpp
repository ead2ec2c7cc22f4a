// Runtime suite: wire framing, the retriable channel, and the REAL
// multi-process distributed runtime over loopback.
//
// The loopback tests spawn actual gpf_worker processes (GPF_WORKER_BIN is
// injected by CMake).  Shuffles run as a codec-attached Dataset::shuffle
// on an exec::DistributedBackend — the path every distributed pipeline
// takes — and are compared bit for bit against the in-process backend,
// including while a worker is SIGKILLed mid-stage.  Each asserts that
// blocks really went through the worker transport.  Recovery must flow
// through the SAME fault-tolerant stage executor the in-process engine
// uses: a failed push surfaces as WorkerLost (the map attempt is retried
// on another worker), and a block lost with its owner is re-pushed from
// the driver's lineage cache — never a second recovery mechanism.
//
// The framing fuzz runs under GPF_FUZZ_SEED (swept by CI alongside the
// parser fuzz); decode_frame must reject arbitrary garbage with a typed
// FrameError, never crash or mis-parse.
#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "core/backend.hpp"
#include "core/pipeline.hpp"
#include "engine/dataset.hpp"
#include "engine/fault_injector.hpp"
#include "exec/distributed_backend.hpp"
#include "formats/fasta.hpp"
#include "net/channel.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "runtime/block_store.hpp"
#include "runtime/worker.hpp"
#include "runtime/worker_pool.hpp"
#include "test_codecs.hpp"

namespace gpf::runtime {
namespace {

std::uint64_t fuzz_seed() {
  return engine::seed_from_env("GPF_FUZZ_SEED", 42);
}

std::span<const std::uint8_t> as_span(const std::vector<std::uint8_t>& v) {
  return {v.data(), v.size()};
}

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

// ---------------------------------------------------------------------------
// Framing

TEST(Frame, RoundTrip) {
  net::Frame f;
  f.type = 7;
  f.request_id = 0x1122334455667788ULL;
  f.payload = bytes_of("genomes in flight");
  const auto wire = net::encode_frame(f);
  ASSERT_EQ(wire.size(), net::kFrameHeaderBytes + f.payload.size());
  const net::Frame back = net::decode_frame(as_span(wire));
  EXPECT_EQ(back.type, f.type);
  EXPECT_EQ(back.request_id, f.request_id);
  EXPECT_EQ(back.payload, f.payload);
}

TEST(Frame, EmptyPayloadRoundTrip) {
  net::Frame f;
  f.type = 1;
  const auto wire = net::encode_frame(f);
  const net::Frame back = net::decode_frame(as_span(wire));
  EXPECT_EQ(back.type, 1u);
  EXPECT_TRUE(back.payload.empty());
}

TEST(Frame, BadMagicRejected) {
  auto wire = net::encode_frame(net::Frame{2, 9, bytes_of("x")});
  wire[0] ^= 0xff;
  try {
    net::decode_frame(as_span(wire));
    FAIL() << "bad magic accepted";
  } catch (const net::FrameError& e) {
    EXPECT_EQ(e.fault(), net::FrameFault::kBadMagic);
  }
}

TEST(Frame, TruncatedHeaderRejected) {
  const auto wire = net::encode_frame(net::Frame{2, 9, bytes_of("abc")});
  for (const std::size_t cut : {std::size_t{1}, std::size_t{4},
                                net::kFrameHeaderBytes - 1}) {
    try {
      net::decode_frame(std::span<const std::uint8_t>(wire.data(), cut));
      FAIL() << "accepted " << cut << "-byte header";
    } catch (const net::FrameError& e) {
      EXPECT_EQ(e.fault(), net::FrameFault::kTruncated);
    }
  }
}

TEST(Frame, TruncatedPayloadRejected) {
  const auto wire = net::encode_frame(net::Frame{2, 9, bytes_of("abcdef")});
  try {
    net::decode_frame(
        std::span<const std::uint8_t>(wire.data(), wire.size() - 2));
    FAIL() << "accepted truncated payload";
  } catch (const net::FrameError& e) {
    EXPECT_EQ(e.fault(), net::FrameFault::kTruncated);
  }
}

TEST(Frame, OversizedPayloadRejected) {
  net::Frame f;
  f.type = 3;
  f.payload.assign(64, 0xab);
  const auto wire = net::encode_frame(f);
  net::FrameLimits limits;
  limits.max_payload = 16;
  try {
    net::decode_frame(as_span(wire), limits);
    FAIL() << "oversized payload accepted";
  } catch (const net::FrameError& e) {
    EXPECT_EQ(e.fault(), net::FrameFault::kOversized);
  }
}

TEST(Frame, CorruptedPayloadFailsChecksum) {
  auto wire = net::encode_frame(net::Frame{2, 9, bytes_of("precious bytes")});
  wire[net::kFrameHeaderBytes + 3] ^= 0x01;
  try {
    net::decode_frame(as_span(wire));
    FAIL() << "corrupted payload accepted";
  } catch (const net::FrameError& e) {
    EXPECT_EQ(e.fault(), net::FrameFault::kChecksum);
  }
}

TEST(Frame, GarbageRejected) {
  std::vector<std::uint8_t> garbage(256, 0xff);
  EXPECT_THROW(net::decode_frame(as_span(garbage)), net::FrameError);
}

// Deterministic framing fuzz: random buffers and single-byte mutations of
// valid frames must always produce either a clean decode or a typed
// FrameError — any other exception (or a crash) is a bug.  Flips inside
// the payload region must never decode silently: FNV-1a's per-byte step
// h = (h ^ b) * prime is injective in h, so a single-byte change always
// changes the final checksum.
TEST(FrameFuzz, GarbageAndMutationsNeverCrash) {
  Rng rng(fuzz_seed());
  net::FrameLimits limits;
  limits.max_payload = 1 << 16;
  int rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> blob;
    bool payload_mutated = false;
    if (iter % 2 == 0) {
      // Pure garbage of random length.
      blob.resize(rng.below(200));
      for (auto& b : blob) b = static_cast<std::uint8_t>(rng.below(256));
    } else {
      // A valid frame with one byte flipped somewhere.
      net::Frame f;
      f.type = static_cast<std::uint32_t>(rng.below(16));
      f.request_id = rng.next();
      f.payload.resize(1 + rng.below(64));
      for (auto& b : f.payload) b = static_cast<std::uint8_t>(rng.below(256));
      blob = net::encode_frame(f);
      const std::size_t at = rng.below(blob.size());
      blob[at] ^= static_cast<std::uint8_t>(1 + rng.below(255));
      payload_mutated = at >= net::kFrameHeaderBytes;
    }
    try {
      net::Frame out = net::decode_frame(as_span(blob), limits);
      EXPECT_LE(out.payload.size(), limits.max_payload);
      EXPECT_FALSE(payload_mutated)
          << "seed " << fuzz_seed() << " iter " << iter
          << ": mutated payload decoded cleanly";
    } catch (const net::FrameError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(Frame, RoundTripOverSocket) {
  net::Listener listener = net::Listener::bind_loopback(0);
  net::Socket client = net::Socket::connect_tcp("127.0.0.1", listener.port(),
                                                2000);
  net::Socket server = listener.accept(2000);
  ASSERT_TRUE(server.valid());

  net::Frame f;
  f.type = 11;
  f.request_id = 99;
  f.payload = bytes_of("over the wire");
  net::write_frame(client, f, 2000);
  const net::Frame got = net::read_frame(server, {}, 2000);
  EXPECT_EQ(got.type, f.type);
  EXPECT_EQ(got.request_id, f.request_id);
  EXPECT_EQ(got.payload, f.payload);
}

TEST(Frame, CleanDisconnectIsEof) {
  net::Listener listener = net::Listener::bind_loopback(0);
  net::Socket client = net::Socket::connect_tcp("127.0.0.1", listener.port(),
                                                2000);
  net::Socket server = listener.accept(2000);
  ASSERT_TRUE(server.valid());
  client.close();
  EXPECT_THROW(net::read_frame(server, {}, 2000), net::FrameEof);
}

TEST(Frame, MidFrameDisconnectIsTruncated) {
  net::Listener listener = net::Listener::bind_loopback(0);
  net::Socket client = net::Socket::connect_tcp("127.0.0.1", listener.port(),
                                                2000);
  net::Socket server = listener.accept(2000);
  ASSERT_TRUE(server.valid());
  const auto wire = net::encode_frame(net::Frame{5, 1, bytes_of("partial")});
  client.send_all(wire.data(), 9, 2000);  // header cut short
  client.close();
  try {
    net::read_frame(server, {}, 2000);
    FAIL() << "mid-frame EOF accepted";
  } catch (const net::FrameError& e) {
    EXPECT_EQ(e.fault(), net::FrameFault::kTruncated);
  }
}

// ---------------------------------------------------------------------------
// Channel + in-process WorkerServer

/// Runs a WorkerServer on a background thread for the duration of a test.
class ServerGuard {
 public:
  explicit ServerGuard(WorkerConfig config = {}) : server_(config) {
    thread_ = std::thread([this] { server_.serve(); });
  }
  ~ServerGuard() {
    server_.request_stop();
    thread_.join();
  }
  WorkerServer& operator*() { return server_; }
  WorkerServer* operator->() { return &server_; }

 private:
  WorkerServer server_;
  std::thread thread_;
};

std::vector<std::uint8_t> sleep_echo_payload(std::uint32_t sleep_ms,
                                             const std::string& echo) {
  ByteWriter w;
  w.u32(sleep_ms);
  w.raw(as_span(bytes_of(echo)));
  return w.take();
}

std::vector<std::uint8_t> run_task_payload(const std::string& kind,
                                           std::vector<std::uint8_t> body) {
  TaskRequest req;
  req.kind = kind;
  req.stage = "test";
  req.payload = std::move(body);
  ByteWriter w;
  encode_task_request(w, req);
  return w.take();
}

TEST(Channel, PingAndEcho) {
  register_builtin_tasks();
  ServerGuard server;
  net::RetriableChannel chan("127.0.0.1", server->port());

  const net::Frame pong = chan.call(kPing, {});
  ASSERT_EQ(pong.type, kPong);
  ByteReader r(as_span(pong.payload));
  EXPECT_EQ(r.i32(), 0);  // worker_id

  const auto payload =
      run_task_payload("sleep_echo", sleep_echo_payload(0, "hello"));
  const net::Frame resp = chan.call(kRunTask, as_span(payload));
  ASSERT_EQ(resp.type, kTaskOk);
  EXPECT_EQ(resp.payload, bytes_of("hello"));
  EXPECT_EQ(server->tasks_executed(), 1u);
}

TEST(Channel, UnknownTaskKindIsTypedError) {
  register_builtin_tasks();
  ServerGuard server;
  net::RetriableChannel chan("127.0.0.1", server->port());
  const auto payload = run_task_payload("no_such_kind", {});
  const net::Frame resp = chan.call(kRunTask, as_span(payload));
  ASSERT_EQ(resp.type, kTaskError);
  ByteReader r(as_span(resp.payload));
  const TaskError err = decode_task_error(r);
  EXPECT_EQ(err.code, TaskErrorCode::kUnknownKind);
}

TEST(Channel, ExhaustsRetriesAgainstDeadPort) {
  // Grab an ephemeral port and close the listener so nothing answers.
  std::uint16_t dead_port;
  {
    net::Listener l = net::Listener::bind_loopback(0);
    dead_port = l.port();
  }
  net::ChannelConfig cfg;
  cfg.connect_timeout_ms = 100;
  cfg.call_timeout_ms = 100;
  cfg.retry.max_attempts = 3;
  cfg.retry.backoff_initial_ms = 1;
  cfg.retry.backoff_max_ms = 5;
  net::RetriableChannel chan("127.0.0.1", dead_port, cfg);
  EXPECT_THROW(chan.call(kPing, {}), net::ChannelError);
}

TEST(Channel, SlowResponseTimesOut) {
  register_builtin_tasks();
  ServerGuard server;
  net::RetriableChannel chan("127.0.0.1", server->port());
  const auto payload =
      run_task_payload("sleep_echo", sleep_echo_payload(2000, "late"));
  EXPECT_THROW(chan.call(kRunTask, as_span(payload), /*timeout_ms=*/100,
                         /*max_attempts=*/1),
               net::ChannelError);
}

// ---------------------------------------------------------------------------
// Block store retention

TEST(BlockStore, ReleaseNamespaceDropsOnlyThatStage) {
  // Regression: worker block stores never evicted, so every completed
  // shuffle's blocks pinned worker memory for the process lifetime.
  BlockStore store;
  const auto blk = [](std::size_t n) {
    StoredBlock b;
    b.bytes = std::make_shared<const std::vector<std::uint8_t>>(n, 0xab);
    return b;
  };
  store.put(BlockId{"jobA", 0, 0}.key(), blk(10));
  store.put(BlockId{"jobA", 1, 2}.key(), blk(20));
  store.put(BlockId{"jobB", 0, 0}.key(), blk(30));
  EXPECT_EQ(store.total_bytes(), 60u);

  EXPECT_EQ(store.release_namespace("jobA"), 30u);
  EXPECT_EQ(store.count(), 1u);
  EXPECT_EQ(store.total_bytes(), 30u);
  EXPECT_TRUE(store.get(BlockId{"jobB", 0, 0}.key()).has_value());

  // Idempotent, and the "stage/" prefix never eats a sibling stage whose
  // name merely starts with the same characters.
  EXPECT_EQ(store.release_namespace("jobA"), 0u);
  store.put(BlockId{"jobAA", 0, 0}.key(), blk(5));
  EXPECT_EQ(store.release_namespace("jobA"), 0u);
  EXPECT_EQ(store.total_bytes(), 35u);
}

TEST(BlockStore, ReleaseKeepsFetchedHandlesAlive) {
  BlockStore store;
  StoredBlock b;
  b.bytes = std::make_shared<const std::vector<std::uint8_t>>(4, 0x5a);
  store.put(BlockId{"job", 0, 0}.key(), b);
  const auto fetched = store.get(BlockId{"job", 0, 0}.key());
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(store.release_namespace("job"), 4u);
  EXPECT_EQ(store.total_bytes(), 0u);
  // The reader's shared pointer keeps the bytes valid after release.
  EXPECT_EQ(fetched->bytes->size(), 4u);
  EXPECT_EQ((*fetched->bytes)[0], 0x5a);
}

// ---------------------------------------------------------------------------
// Multi-process loopback runtime

using U64Partitions = std::vector<std::vector<std::uint64_t>>;

/// Deterministic u64 records; each record is its own partitioning key.
U64Partitions make_inputs(std::size_t n_parts, std::size_t records_per_part,
                          std::uint64_t seed) {
  Rng rng(seed);
  U64Partitions inputs(n_parts);
  for (auto& part : inputs) {
    part.resize(records_per_part);
    for (auto& x : part) x = rng.next();
  }
  return inputs;
}

/// Runs `body` as the one Process of a pipeline on `backend`: backends
/// attach their shuffle transport only around a plan.
void run_as_process(core::ExecutionBackend& backend,
                    std::function<void(engine::Engine&)> body) {
  class BodyProcess final : public core::Process {
   public:
    explicit BodyProcess(std::function<void(engine::Engine&)> body)
        : Process("loopback", {}, {}), body_(std::move(body)) {}

   private:
    void run(core::PipelineContext& ctx) override { body_(ctx.engine()); }
    std::function<void(engine::Engine&)> body_;
  };
  Reference reference;
  core::Pipeline pipeline("loopback", backend, reference);
  pipeline.add_process(std::make_unique<BodyProcess>(std::move(body)));
  pipeline.run();
}

/// A codec-attached Dataset::shuffle of `inputs`, keyed by record value.
U64Partitions shuffle_on(core::ExecutionBackend& backend,
                         const std::string& stage, const U64Partitions& inputs,
                         std::size_t num_out) {
  U64Partitions out;
  run_as_process(backend, [&](engine::Engine& eng) {
    out = eng.make_dataset(inputs)
              .with_codec(tests::pod_codec<std::uint64_t>())
              .shuffle(stage, num_out, [](std::uint64_t x) { return x; })
              .partitions();
  });
  return out;
}

/// The in-process answer for the same shuffle: the distributed backend
/// must match it bit for bit.
U64Partitions in_process_shuffle(const U64Partitions& inputs,
                                 std::size_t num_out) {
  core::EngineBackend backend(engine::EngineConfig{.worker_threads = 2});
  return shuffle_on(backend, "ref.shuffle", inputs, num_out);
}

exec::DistributedBackendOptions backend_options(int workers,
                                                std::size_t threads = 4) {
  exec::DistributedBackendOptions options;
  options.engine = {.worker_threads = threads};
  options.workers = workers;
  options.worker_binary = GPF_WORKER_BIN;
  return options;
}

TEST(Loopback, ShuffleMatchesSingleProcessBitForBit) {
  const auto inputs = make_inputs(4, 200, 1234);
  const std::size_t num_out = 5;
  const auto expected = in_process_shuffle(inputs, num_out);

  exec::DistributedBackend backend(backend_options(3));
  const auto got = shuffle_on(backend, "dist.shuffle", inputs, num_out);

  EXPECT_EQ(got, expected);
  EXPECT_GT(backend.transport_stats().blocks_put, 0u);
  ASSERT_EQ(backend.engine().metrics().stage_count(), 1u);
  const auto& stage = backend.engine().metrics().stages().back();
  EXPECT_TRUE(stage.wide);
  EXPECT_GT(stage.shuffle_write_bytes, 0u);
  EXPECT_EQ(stage.shuffle_write_bytes, stage.shuffle_read_bytes);
}

TEST(Loopback, ShuffleReleasesWorkerBlocksOnSuccess) {
  // Retention regression, end to end: when a shuffle ends the transport
  // broadcasts release_blocks, so every worker's store must be back to
  // zero bytes — completed jobs stop pinning worker memory.
  const auto inputs = make_inputs(4, 64, 99);
  exec::DistributedBackend backend(backend_options(2));
  shuffle_on(backend, "dist.release", inputs, 3);
  EXPECT_GT(backend.transport_stats().blocks_put, 0u);

  WorkerPool& pool = backend.worker_pool();
  TaskRequest req;
  req.kind = "release_blocks";
  req.stage = "probe";
  ByteWriter payload;
  payload.str("probe");
  req.payload = payload.take();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (!pool.alive(static_cast<int>(i))) continue;
    auto [w, frame] = pool.dispatch_to(static_cast<int>(i), req);
    ASSERT_EQ(frame.type, static_cast<std::uint32_t>(kTaskOk));
    ByteReader r(as_span(frame.payload));
    r.u64();  // bytes released under the probe's own (empty) namespace
    EXPECT_EQ(r.u64(), 0u) << "worker " << i << " still pins bytes";
  }
}

TEST(Loopback, SigkillMidTaskSurfacesAsWorkerLost) {
  WorkerPool pool(GPF_WORKER_BIN);
  pool.spawn_local(2);
  TaskRequest req;
  req.kind = "sleep_echo";
  req.stage = "chaos";
  req.payload = sleep_echo_payload(300, "x");

  // Kill the process directly, ~50 ms into a 300 ms task: the pool learns
  // of the death only through the dispatch's broken connection.
  const pid_t victim = pool.info(1).pid;
  std::thread killer([victim] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::kill(victim, SIGKILL);
  });
  EXPECT_THROW(pool.dispatch_to(1, req), WorkerLost);
  killer.join();
  EXPECT_FALSE(pool.alive(1));
  EXPECT_EQ(pool.alive_count(), 1u);
  pool.shutdown_all();
}

TEST(Loopback, SigkillMidMapStageRecovers) {
  const auto inputs = make_inputs(6, 64, 77);
  const std::size_t num_out = 4;
  const auto expected = in_process_shuffle(inputs, num_out);

  // One driver thread per map task, so pushes are in flight when the
  // kill lands.  The first push's owner dies as soon as a push lands on
  // another worker: pushes in flight to it fail as WorkerLost and retry
  // on a survivor, and its finished blocks are repaired from lineage.
  exec::DistributedBackend backend(backend_options(3, 6));
  std::atomic<int> first_owner{-1};
  std::atomic<bool> killed{false};
  backend.set_push_hook([&](std::size_t, int worker) {
    int expected_owner = -1;
    if (first_owner.compare_exchange_strong(expected_owner, worker)) return;
    if (expected_owner != worker && !killed.exchange(true)) {
      backend.worker_pool().kill_worker(expected_owner, SIGKILL);
    }
  });
  const auto got = shuffle_on(backend, "dist.chaos", inputs, num_out);

  EXPECT_TRUE(killed.load());
  EXPECT_EQ(got, expected);
  EXPECT_EQ(backend.worker_pool().alive_count(), 2u);
  EXPECT_GT(backend.transport_stats().blocks_put, 0u);
  EXPECT_GT(backend.transport_stats().lineage_recoveries, 0u);
  EXPECT_FALSE(backend.engine().metrics().stages().back().failed);
}

TEST(Loopback, LostBlocksRecomputeFromLineage) {
  const auto inputs = make_inputs(5, 48, 9001);
  const std::size_t num_out = 3;
  const auto expected = in_process_shuffle(inputs, num_out);

  // Kill the owner of the last map push, once every map output is in
  // place: its blocks are gone, so the reduce side re-pushes them from
  // the driver's lineage cache to a survivor and fetches from there.
  exec::DistributedBackend backend(backend_options(3));
  std::atomic<std::size_t> pushes{0};
  backend.set_push_hook([&](std::size_t, int worker) {
    if (pushes.fetch_add(1) + 1 == inputs.size()) {
      backend.worker_pool().kill_worker(worker, SIGKILL);
    }
  });
  const auto got = shuffle_on(backend, "dist.lineage", inputs, num_out);

  EXPECT_EQ(got, expected);
  EXPECT_EQ(backend.worker_pool().alive_count(), 2u);
  EXPECT_GT(backend.transport_stats().blocks_put, 0u);
  EXPECT_GT(backend.transport_stats().lineage_recoveries, 0u);
  EXPECT_FALSE(backend.engine().metrics().stages().back().failed);
}

TEST(Loopback, HeartbeatDetectsSilentDeath) {
  WorkerPool pool(GPF_WORKER_BIN);
  pool.spawn_local(2);
  ASSERT_EQ(pool.alive_count(), 2u);

  // Kill the process directly (not via kill_worker, which marks it dead
  // itself) so only the heartbeat monitor can notice.
  ::kill(pool.info(1).pid, SIGKILL);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pool.alive(1) && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_FALSE(pool.alive(1));
  EXPECT_EQ(pool.alive_count(), 1u);
  pool.shutdown_all();
}

TEST(Loopback, InjectedStragglerTriggersSpeculation) {
  const auto inputs = make_inputs(4, 32, 555);
  const std::size_t num_out = 2;
  const auto expected = in_process_shuffle(inputs, num_out);

  // Driver-side straggler on map task 0, above the 20 ms speculation
  // threshold: the stage executor launches a speculative copy, which
  // pushes its blocks to a worker too, and the first finisher wins.
  exec::DistributedBackend backend(backend_options(2));
  backend.engine().set_fault_injector(std::make_shared<engine::FaultInjector>(
      7, std::vector<engine::FaultRule>{
             engine::FaultRule::delay_task("dist.spec", 0, 60.0)}));
  const auto got = shuffle_on(backend, "dist.spec", inputs, num_out);

  EXPECT_EQ(got, expected);
  EXPECT_GT(backend.transport_stats().blocks_put, 0u);
  const auto& stage = backend.engine().metrics().stages().back();
  EXPECT_EQ(stage.speculative_launches, 1u);
  EXPECT_GE(stage.injected_faults, 1u);
}

TEST(Loopback, MissingBlockSurfacesAsTypedError) {
  WorkerPool pool(GPF_WORKER_BIN);
  pool.spawn_local(2);

  // A fetch of a block nobody pushed.
  try {
    fetch_block_over_wire(pool.info(0).port, BlockId{"ghost", 4, 0});
    FAIL() << "fetch of a missing block succeeded";
  } catch (const MissingBlockError& e) {
    EXPECT_EQ(e.map_task(), 4u);
  }

  // A push whose checksum does not match its bytes is refused on arrival.
  const std::vector<std::uint8_t> block = bytes_of("block bytes");
  ByteWriter w;
  w.uvarint(1);  // one block
  w.u64(fnv1a64(as_span(block)) ^ 1);
  w.uvarint(1);  // records
  w.uvarint(block.size());
  w.raw(as_span(block));
  TaskRequest req;
  req.kind = "pipeline_stage";
  req.stage = "ghost";
  req.task = 7;
  req.payload = w.take();
  try {
    pool.run_task(req);
    FAIL() << "push of a corrupted block succeeded";
  } catch (const RemoteTaskError& e) {
    EXPECT_EQ(e.error().code, TaskErrorCode::kMissingBlock);
    EXPECT_EQ(e.error().detail, 7u);
  }
  pool.shutdown_all();
}

TEST(Loopback, AllWorkersDeadIsTerminal) {
  WorkerPool pool(GPF_WORKER_BIN);
  pool.spawn_local(1);
  pool.kill_worker(0, SIGKILL);
  TaskRequest req;
  req.kind = "sleep_echo";
  req.stage = "none";
  req.payload = sleep_echo_payload(0, "x");
  EXPECT_THROW(pool.run_task(req), NoLiveWorkers);
  pool.shutdown_all();
}

/// Runs gpf_worker with one argument and returns its exit status and
/// combined stdout/stderr.  A worker that starts serving anyway is
/// killed once it prints its ready line (or after 5 s), so a lenient
/// parser fails the test instead of hanging it.
std::pair<int, std::string> run_worker_with(const std::string& arg) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::dup2(fds[1], STDERR_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execl(GPF_WORKER_BIN, GPF_WORKER_BIN, arg.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(fds[1]);
  std::string out;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{fds[0], POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char buf[256];
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;  // EOF: the worker exited
    out.append(buf, static_cast<std::size_t>(n));
    if (out.find("GPF_WORKER_READY") != std::string::npos) break;
  }
  ::close(fds[0]);
  ::kill(pid, SIGKILL);  // no-op unless it is still serving
  int status = 0;
  ::waitpid(pid, &status, 0);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

TEST(Loopback, WorkerRejectsMalformedArguments) {
  for (const std::string arg :
       {"--port=70000", "--port=abc", "--port=", "--port=80x", "--port=-1",
        "--id=", "--id=1.5", "--id=99999999999"}) {
    const auto [status, out] = run_worker_with(arg);
    EXPECT_EQ(status, 2) << arg << ": " << out;
    EXPECT_EQ(out.find("GPF_WORKER_READY"), std::string::npos) << arg;
    EXPECT_NE(out.find("gpf_worker: bad"), std::string::npos) << arg;
  }
}

}  // namespace
}  // namespace gpf::runtime
