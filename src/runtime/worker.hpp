// The worker side of the distributed runtime.
//
// A WorkerServer is one process's serving loop: it accepts framed
// connections from the driver, answers heartbeats, executes registered
// task handlers, and serves shuffle blocks out of its BlockStore.
// Connections get one handler thread each (blocking I/O), so a
// long-running task on one connection never starves heartbeats arriving
// on another — that separation is what makes driver-side liveness
// tracking meaningful.
//
// Task handlers are looked up in a process-global TaskRegistry by name:
// C++ closures cannot cross a process boundary, so the driver names a
// handler compiled into the worker binary and ships only data.  The
// builtin handlers (pipeline_stage / release_blocks / sleep_echo) cover
// the runtime's own needs; embedders register more.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "runtime/block_store.hpp"
#include "runtime/protocol.hpp"

namespace gpf::runtime {

/// Thrown when a shuffle block cannot be obtained or fails its checksum
/// (a fetch from a dead or empty worker, or a pushed block corrupted in
/// transit); a task handler's throw surfaces to the driver as
/// kTaskError/kMissingBlock naming the map task.
class MissingBlockError : public std::runtime_error {
 public:
  MissingBlockError(std::uint64_t map_task, const std::string& message)
      : std::runtime_error(message), map_task_(map_task) {}
  std::uint64_t map_task() const { return map_task_; }

 private:
  std::uint64_t map_task_;
};

/// What a task handler gets to work with.
struct WorkerContext {
  BlockStore& blocks;
};

using TaskHandler = std::function<std::vector<std::uint8_t>(
    WorkerContext&, const TaskRequest&)>;

/// Fetches one block from the worker listening on loopback `port` over a
/// fresh channel and validates it against its shipped checksum — the
/// read path of the driver-side distributed shuffle transport.  Throws
/// MissingBlockError when the worker is unreachable, lacks the block,
/// or the bytes fail their checksum.
StoredBlock fetch_block_over_wire(std::uint16_t port, const BlockId& id);

/// Process-global name -> handler table.
class TaskRegistry {
 public:
  static TaskRegistry& global();

  void add(const std::string& kind, TaskHandler handler);
  const TaskHandler* find(const std::string& kind) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, TaskHandler> handlers_;
};

/// Registers the builtin pipeline_stage / release_blocks / sleep_echo
/// handlers (idempotent).
void register_builtin_tasks();

struct WorkerConfig {
  std::uint16_t port = 0;  // 0 = kernel-assigned
  int worker_id = 0;
};

class WorkerServer {
 public:
  explicit WorkerServer(WorkerConfig config);
  ~WorkerServer();

  WorkerServer(const WorkerServer&) = delete;
  WorkerServer& operator=(const WorkerServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }
  int worker_id() const { return config_.worker_id; }
  BlockStore& blocks() { return blocks_; }
  std::uint64_t tasks_executed() const { return tasks_executed_.load(); }

  /// Accept loop; returns after request_stop() (or a kShutdown frame).
  void serve();

  void request_stop() { stop_.store(true); }

 private:
  void handle_connection(net::Socket sock);
  net::Frame handle_message(const net::Frame& request);

  WorkerConfig config_;
  net::Listener listener_;
  BlockStore blocks_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::mutex threads_mu_;
  std::vector<std::thread> threads_;
};

}  // namespace gpf::runtime
