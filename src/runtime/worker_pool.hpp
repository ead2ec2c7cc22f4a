// Driver-side view of the worker fleet.
//
// The pool spawns gpf_worker processes on loopback ports (fork/exec with a
// ready handshake over a pipe), keeps one dispatch channel and one control
// channel per worker, and runs a heartbeat monitor thread that marks
// workers dead after consecutive missed pings.  Task dispatch rotates over
// live workers; a transport failure marks the worker dead and surfaces as
// WorkerLost, which the fault-tolerant stage executor treats like any
// failed task attempt — retry, or finish via an already-running
// speculative copy.  That is the whole point of the design: process death
// re-uses the engine's existing recovery machinery instead of adding a
// second one.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/buffer_pool.hpp"
#include "net/channel.hpp"
#include "runtime/protocol.hpp"

namespace gpf::runtime {

/// The targeted worker died (or its channel did); retriable by the stage
/// executor on another worker.
class WorkerLost : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Every worker is dead; not retriable.
class NoLiveWorkers : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The worker executed the task and reported a failure (kTaskError).
class RemoteTaskError : public std::runtime_error {
 public:
  RemoteTaskError(TaskError error, const std::string& message)
      : std::runtime_error(message), error_(std::move(error)) {}
  const TaskError& error() const { return error_; }

 private:
  TaskError error_;
};

struct WorkerInfo {
  int id = -1;
  pid_t pid = -1;
  std::uint16_t port = 0;
  bool alive = false;
};

class WorkerPool {
 public:
  /// `worker_binary` is the gpf_worker path spawn_local executes.
  explicit WorkerPool(std::string worker_binary);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Spawns `count` local worker processes and starts the heartbeat
  /// monitor.  Throws on any spawn failure.
  void spawn_local(int count);

  std::size_t size() const;
  std::size_t alive_count() const;
  bool alive(int w) const;
  WorkerInfo info(int w) const;

  /// Sends `req` to a live worker (round-robin).  Returns the worker index
  /// and the response frame (kTaskOk or kTaskError).  Throws WorkerLost on
  /// transport failure (after marking the worker dead) and NoLiveWorkers
  /// when nobody is left.  `scratch` recycles the request encode buffer.
  std::pair<int, net::Frame> dispatch(const TaskRequest& req,
                                      BufferPool* scratch = nullptr);

  /// Like dispatch() but targets one specific worker.
  std::pair<int, net::Frame> dispatch_to(int w, const TaskRequest& req,
                                         BufferPool* scratch = nullptr);

  /// Convenience: dispatch and unwrap — returns the kTaskOk payload or
  /// throws RemoteTaskError for kTaskError responses.  The worker index
  /// that executed the task is stored in *worker when non-null.
  std::vector<std::uint8_t> run_task(const TaskRequest& req,
                                     BufferPool* scratch = nullptr,
                                     int* worker = nullptr);

  /// Marks a worker dead and drops its channels (idempotent).
  void mark_dead(int w);

  /// Test hook: signal a worker process (e.g. SIGKILL for chaos tests).
  void kill_worker(int w, int sig);

  /// Graceful shutdown of every live worker, then reaps all processes.
  void shutdown_all();

 private:
  struct Worker {
    WorkerInfo info;
    std::unique_ptr<net::RetriableChannel> dispatch;
    std::unique_ptr<net::RetriableChannel> control;
    std::atomic<bool> alive{false};
    int missed_heartbeats = 0;
  };

  void heartbeat_loop();
  void reap(Worker& w, bool force_kill);

  std::string worker_binary_;
  mutable std::mutex mu_;  // guards workers_ vector growth + info
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::size_t> next_worker_{0};
  std::thread heartbeat_thread_;
  std::atomic<bool> stop_{false};
};

}  // namespace gpf::runtime
