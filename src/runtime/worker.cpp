#include "runtime/worker.hpp"

#include <chrono>
#include <utility>

#include "common/checksum.hpp"
#include "common/trace.hpp"
#include "net/channel.hpp"

namespace gpf::runtime {
namespace {

/// Idle receive window per connection poll; also the stop-flag latency.
constexpr int kPollIntervalMs = 200;
/// Deadline for reading/writing one frame once transfer has started.
constexpr int kIoTimeoutMs = 15000;
constexpr net::FrameLimits kFrameLimits{};
/// Channel for block fetches from a worker.
const net::ChannelConfig kFetchChannel{.connect_timeout_ms = 1000,
                                       .call_timeout_ms = 5000,
                                       .retry = {.max_attempts = 2},
                                       .limits = {}};

/// pipeline_stage: deposit driver-pushed shuffle blocks for one map task
/// of a lowered pipeline stage.  Payload: uvarint num_out, then per
/// block u64 checksum, uvarint records, uvarint nbytes, raw bytes.
/// Blocks are validated against their checksum on arrival and stored
/// under BlockId{req.stage, req.task, b}; a re-push (map retry or
/// driver-side lineage repair) overwrites with bit-identical bytes, so
/// last-write-wins is correct.  Replies with u64 total bytes deposited.
std::vector<std::uint8_t> pipeline_stage_task(WorkerContext& ctx,
                                              const TaskRequest& req) {
  ByteReader r(std::span<const std::uint8_t>(req.payload.data(),
                                             req.payload.size()));
  const std::uint64_t num_out = r.uvarint();
  std::uint64_t total_bytes = 0;
  for (std::uint64_t b = 0; b < num_out; ++b) {
    StoredBlock stored;
    stored.checksum = r.u64();
    stored.records = r.uvarint();
    const std::uint64_t n = r.uvarint();
    const auto bytes = r.raw(n);
    auto owned = std::make_shared<std::vector<std::uint8_t>>(bytes.begin(),
                                                             bytes.end());
    if (fnv1a64(*owned) != stored.checksum) {
      throw MissingBlockError(
          req.task, "pushed block " + BlockId{req.stage, req.task, b}.key() +
                        " corrupted in transit");
    }
    stored.bytes = std::move(owned);
    total_bytes += n;
    ctx.blocks.put(BlockId{req.stage, req.task, b}.key(), stored);
  }
  ByteWriter reply;
  reply.u64(total_bytes);
  return reply.take();
}

/// release_blocks: drop every block of the named shuffle's namespace from
/// this worker's store (the driver broadcasts this once a shuffle
/// succeeds, so completed jobs stop pinning worker memory).  Replies with
/// the bytes released and the store's remaining total, which is what the
/// retention tests assert returns to zero.
std::vector<std::uint8_t> release_blocks_task(WorkerContext& ctx,
                                              const TaskRequest& req) {
  ByteReader r(std::span<const std::uint8_t>(req.payload.data(),
                                             req.payload.size()));
  const std::string stage = r.str();
  const std::uint64_t released = ctx.blocks.release_namespace(stage);
  ByteWriter reply;
  reply.u64(released);
  reply.u64(ctx.blocks.total_bytes());
  return reply.take();
}

/// sleep_echo: test aid — sleep, then echo the bytes back.
std::vector<std::uint8_t> sleep_echo_task(WorkerContext&,
                                          const TaskRequest& req) {
  ByteReader r(std::span<const std::uint8_t>(req.payload.data(),
                                             req.payload.size()));
  const std::uint32_t sleep_ms = r.u32();
  const auto rest = r.raw(r.remaining());
  if (sleep_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
  return std::vector<std::uint8_t>(rest.begin(), rest.end());
}

}  // namespace

TaskRegistry& TaskRegistry::global() {
  static TaskRegistry* registry = new TaskRegistry();
  return *registry;
}

void TaskRegistry::add(const std::string& kind, TaskHandler handler) {
  std::lock_guard lock(mu_);
  handlers_[kind] = std::move(handler);
}

const TaskHandler* TaskRegistry::find(const std::string& kind) const {
  std::lock_guard lock(mu_);
  const auto it = handlers_.find(kind);
  return it == handlers_.end() ? nullptr : &it->second;
}

void register_builtin_tasks() {
  TaskRegistry& reg = TaskRegistry::global();
  reg.add("pipeline_stage", pipeline_stage_task);
  reg.add("release_blocks", release_blocks_task);
  reg.add("sleep_echo", sleep_echo_task);
}

StoredBlock fetch_block_over_wire(std::uint16_t port, const BlockId& id) {
  ByteWriter w;
  encode_block_id(w, id);
  net::RetriableChannel peer("127.0.0.1", port, kFetchChannel);
  net::Frame resp;
  try {
    resp = peer.call(kFetchBlock, std::span<const std::uint8_t>(
                                      w.bytes().data(), w.bytes().size()));
  } catch (const net::ChannelError& e) {
    throw MissingBlockError(id.map_task, "fetching block " + id.key() +
                                             " from port " +
                                             std::to_string(port) +
                                             " failed: " + e.what());
  }
  if (resp.type != kBlockData) {
    ByteReader br(std::span<const std::uint8_t>(resp.payload.data(),
                                                resp.payload.size()));
    throw MissingBlockError(id.map_task, "worker at port " +
                                             std::to_string(port) +
                                             " has no block " + id.key() +
                                             ": " + br.str());
  }
  ByteReader br(std::span<const std::uint8_t>(resp.payload.data(),
                                              resp.payload.size()));
  StoredBlock block;
  block.checksum = br.u64();
  block.records = br.uvarint();
  const std::uint64_t n = br.uvarint();
  const auto bytes = br.raw(n);
  auto owned = std::make_shared<std::vector<std::uint8_t>>(bytes.begin(),
                                                           bytes.end());
  // Validate on arrival: the frame checksum already guards the transport,
  // but the block checksum is the shuffle's end-to-end integrity contract.
  if (fnv1a64(*owned) != block.checksum) {
    throw MissingBlockError(id.map_task, "block " + id.key() +
                                             " corrupted in transit from "
                                             "port " +
                                             std::to_string(port));
  }
  block.bytes = std::move(owned);
  return block;
}

WorkerServer::WorkerServer(WorkerConfig config)
    : config_(config),
      listener_(net::Listener::bind_loopback(config.port)) {}

WorkerServer::~WorkerServer() {
  request_stop();
  std::lock_guard lock(threads_mu_);
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void WorkerServer::serve() {
  while (!stop_.load()) {
    net::Socket sock = listener_.accept(kPollIntervalMs);
    if (!sock.valid()) continue;
    std::lock_guard lock(threads_mu_);
    threads_.emplace_back(
        [this, s = std::move(sock)]() mutable { handle_connection(std::move(s)); });
  }
}

void WorkerServer::handle_connection(net::Socket sock) {
  while (!stop_.load()) {
    if (!sock.wait_readable(kPollIntervalMs)) continue;
    net::Frame request;
    try {
      request = net::read_frame(sock, kFrameLimits, kIoTimeoutMs);
    } catch (const net::FrameEof&) {
      return;
    } catch (const std::runtime_error&) {
      return;  // malformed or dead connection: drop it
    }
    net::Frame response = handle_message(request);
    response.request_id = request.request_id;
    try {
      net::write_frame(sock, response, kIoTimeoutMs);
    } catch (const std::runtime_error&) {
      return;
    }
    if (request.type == kShutdown) {
      request_stop();
      return;
    }
  }
}

net::Frame WorkerServer::handle_message(const net::Frame& request) {
  net::Frame response;
  switch (request.type) {
    case kPing: {
      ByteWriter w;
      w.i32(config_.worker_id);
      w.u64(blocks_.count());
      w.u64(blocks_.total_bytes());
      w.u64(tasks_executed_.load());
      response.type = kPong;
      response.payload = w.take();
      return response;
    }
    case kShutdown: {
      response.type = kShutdownOk;
      return response;
    }
    case kFetchBlock: {
      ByteReader r(std::span<const std::uint8_t>(request.payload.data(),
                                                 request.payload.size()));
      BlockId id;
      try {
        id = decode_block_id(r);
      } catch (const std::exception& e) {
        ByteWriter w;
        w.str(std::string("bad fetch request: ") + e.what());
        response.type = kBlockError;
        response.payload = w.take();
        return response;
      }
      const auto block = blocks_.get(id.key());
      if (!block) {
        ByteWriter w;
        w.str("no such block: " + id.key());
        response.type = kBlockError;
        response.payload = w.take();
        return response;
      }
      ByteWriter w;
      w.u64(block->checksum);
      w.uvarint(block->records);
      w.uvarint(block->bytes->size());
      w.raw(std::span<const std::uint8_t>(block->bytes->data(),
                                          block->bytes->size()));
      response.type = kBlockData;
      response.payload = w.take();
      return response;
    }
    case kRunTask: {
      TaskRequest req;
      try {
        ByteReader r(std::span<const std::uint8_t>(request.payload.data(),
                                                   request.payload.size()));
        req = decode_task_request(r);
      } catch (const std::exception& e) {
        ByteWriter w;
        encode_task_error(w, {TaskErrorCode::kExecution, 0,
                              std::string("bad task request: ") + e.what()});
        response.type = kTaskError;
        response.payload = w.take();
        return response;
      }
      const TaskHandler* handler = TaskRegistry::global().find(req.kind);
      if (handler == nullptr) {
        ByteWriter w;
        encode_task_error(w, {TaskErrorCode::kUnknownKind, 0,
                              "no handler for task kind '" + req.kind + "'"});
        response.type = kTaskError;
        response.payload = w.take();
        return response;
      }
      WorkerContext ctx{blocks_};
      try {
        // The span mirrors the driver-side task span: worker traces (when
        // enabled) show the same (stage, task, attempt) identity.
        trace::ScopedSpan span(req.stage, trace::SpanKind::kTask,
                               static_cast<std::int64_t>(req.task),
                               req.attempt);
        std::vector<std::uint8_t> result = (*handler)(ctx, req);
        tasks_executed_.fetch_add(1);
        response.type = kTaskOk;
        response.payload = std::move(result);
        return response;
      } catch (const MissingBlockError& e) {
        ByteWriter w;
        encode_task_error(
            w, {TaskErrorCode::kMissingBlock, e.map_task(), e.what()});
        response.type = kTaskError;
        response.payload = w.take();
        return response;
      } catch (const std::exception& e) {
        ByteWriter w;
        encode_task_error(w, {TaskErrorCode::kExecution, 0, e.what()});
        response.type = kTaskError;
        response.payload = w.take();
        return response;
      }
    }
    default: {
      ByteWriter w;
      encode_task_error(w, {TaskErrorCode::kExecution, 0,
                            "unknown message type " +
                                std::to_string(request.type)});
      response.type = kTaskError;
      response.payload = w.take();
      return response;
    }
  }
}

}  // namespace gpf::runtime
