#include "runtime/worker_pool.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>

namespace gpf::runtime {
namespace {

constexpr int kHeartbeatIntervalMs = 100;
constexpr int kHeartbeatTimeoutMs = 300;
constexpr int kMaxMissedHeartbeats = 3;
/// Spawn handshake deadline (worker prints its ready line).
constexpr int kSpawnTimeoutMs = 10000;
const net::ChannelConfig kDispatchChannel{.call_timeout_ms = 30000,
                                          .retry = {.max_attempts = 2},
                                          .limits = {}};
const net::ChannelConfig kControlChannel{.connect_timeout_ms = 500,
                                         .call_timeout_ms = 300,
                                         .retry = {.max_attempts = 1},
                                         .limits = {}};

/// Reads the worker's ready line ("GPF_WORKER_READY port=N\n") from its
/// stdout pipe within the deadline; returns the port.
std::uint16_t read_ready_line(int fd, int timeout_ms, pid_t pid) {
  std::string line;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) {
      throw std::runtime_error("worker (pid " + std::to_string(pid) +
                               ") did not report ready in time");
    }
    struct pollfd p{fd, POLLIN, 0};
    const int rc = ::poll(&p, 1, static_cast<int>(left));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) continue;
    char buf[128];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) {
      throw std::runtime_error("worker (pid " + std::to_string(pid) +
                               ") exited before reporting ready");
    }
    line.append(buf, static_cast<std::size_t>(n));
    const auto nl = line.find('\n');
    if (nl == std::string::npos) continue;
    unsigned port = 0;
    if (std::sscanf(line.c_str(), "GPF_WORKER_READY port=%u", &port) != 1 ||
        port == 0 || port > 65535) {
      throw std::runtime_error("worker (pid " + std::to_string(pid) +
                               ") printed a malformed ready line: " + line);
    }
    return static_cast<std::uint16_t>(port);
  }
}

}  // namespace

WorkerPool::WorkerPool(std::string worker_binary)
    : worker_binary_(std::move(worker_binary)) {}

WorkerPool::~WorkerPool() {
  shutdown_all();
  stop_.store(true);
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
}

void WorkerPool::spawn_local(int count) {
  if (worker_binary_.empty()) {
    throw std::invalid_argument("WorkerPool: worker_binary not set");
  }
  for (int k = 0; k < count; ++k) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
    }
    const int next_id = static_cast<int>(size());
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
    }
    if (pid == 0) {
      // Child: wire stdout to the handshake pipe, die with the driver
      // (no orphaned workers if the driver crashes), exec the worker.
      ::dup2(pipe_fds[1], STDOUT_FILENO);
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const std::string id_arg = "--id=" + std::to_string(next_id);
      ::execl(worker_binary_.c_str(), worker_binary_.c_str(),
              "--port=0", id_arg.c_str(), static_cast<char*>(nullptr));
      std::fprintf(stderr, "exec %s: %s\n", worker_binary_.c_str(),
                   std::strerror(errno));
      ::_exit(127);
    }
    ::close(pipe_fds[1]);
    std::uint16_t port = 0;
    try {
      port = read_ready_line(pipe_fds[0], kSpawnTimeoutMs, pid);
    } catch (...) {
      ::close(pipe_fds[0]);
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      throw;
    }
    ::close(pipe_fds[0]);

    auto w = std::make_unique<Worker>();
    w->info = {next_id, pid, port, true};
    w->dispatch = std::make_unique<net::RetriableChannel>(
        "127.0.0.1", port, kDispatchChannel);
    w->control = std::make_unique<net::RetriableChannel>(
        "127.0.0.1", port, kControlChannel);
    w->alive.store(true);
    std::lock_guard lock(mu_);
    workers_.push_back(std::move(w));
  }
  if (!heartbeat_thread_.joinable()) {
    heartbeat_thread_ = std::thread([this] { heartbeat_loop(); });
  }
}

std::size_t WorkerPool::size() const {
  std::lock_guard lock(mu_);
  return workers_.size();
}

std::size_t WorkerPool::alive_count() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& w : workers_) n += w->alive.load() ? 1 : 0;
  return n;
}

bool WorkerPool::alive(int w) const {
  std::lock_guard lock(mu_);
  return w >= 0 && w < static_cast<int>(workers_.size()) &&
         workers_[w]->alive.load();
}

WorkerInfo WorkerPool::info(int w) const {
  std::lock_guard lock(mu_);
  WorkerInfo i = workers_.at(w)->info;
  i.alive = workers_.at(w)->alive.load();
  return i;
}

std::pair<int, net::Frame> WorkerPool::dispatch(const TaskRequest& req,
                                                BufferPool* scratch) {
  const std::size_t n = size();
  const std::size_t start = next_worker_.fetch_add(1);
  for (std::size_t k = 0; k < n; ++k) {
    const int w = static_cast<int>((start + k) % n);
    if (!alive(w)) continue;
    return dispatch_to(w, req, scratch);
  }
  throw NoLiveWorkers("dispatch of task " + std::to_string(req.task) +
                      " (stage '" + req.stage + "'): no live workers");
}

std::pair<int, net::Frame> WorkerPool::dispatch_to(int w,
                                                   const TaskRequest& req,
                                                   BufferPool* scratch) {
  net::RetriableChannel* channel = nullptr;
  {
    std::lock_guard lock(mu_);
    channel = workers_.at(w)->dispatch.get();
  }
  ByteWriter enc(scratch != nullptr ? scratch->acquire()
                                    : std::vector<std::uint8_t>{});
  encode_task_request(enc, req);
  std::vector<std::uint8_t> buf = enc.take();
  net::Frame resp;
  try {
    resp = channel->call(
        kRunTask, std::span<const std::uint8_t>(buf.data(), buf.size()));
  } catch (const net::ChannelError& e) {
    if (scratch != nullptr) scratch->release(std::move(buf));
    mark_dead(w);
    throw WorkerLost("worker " + std::to_string(w) + " lost while running "
                     "task " + std::to_string(req.task) + " of stage '" +
                     req.stage + "': " + e.what());
  }
  if (scratch != nullptr) scratch->release(std::move(buf));
  return {w, std::move(resp)};
}

std::vector<std::uint8_t> WorkerPool::run_task(const TaskRequest& req,
                                               BufferPool* scratch,
                                               int* worker) {
  auto [w, resp] = dispatch(req, scratch);
  if (worker != nullptr) *worker = w;
  if (resp.type == kTaskOk) return std::move(resp.payload);
  if (resp.type == kTaskError) {
    ByteReader r(std::span<const std::uint8_t>(resp.payload.data(),
                                               resp.payload.size()));
    TaskError err = decode_task_error(r);
    const std::string message = "task " + std::to_string(req.task) +
                                " of stage '" + req.stage +
                                "' failed on worker " + std::to_string(w) +
                                ": " + err.message;
    throw RemoteTaskError(std::move(err), message);
  }
  throw std::runtime_error("unexpected response type " +
                           std::to_string(resp.type));
}

void WorkerPool::mark_dead(int w) {
  std::lock_guard lock(mu_);
  if (w < 0 || w >= static_cast<int>(workers_.size())) return;
  Worker& worker = *workers_[w];
  if (!worker.alive.exchange(false)) return;
  worker.dispatch->disconnect();
  worker.control->disconnect();
}

void WorkerPool::kill_worker(int w, int sig) {
  pid_t pid = -1;
  {
    std::lock_guard lock(mu_);
    pid = workers_.at(w)->info.pid;
  }
  if (pid > 0) ::kill(pid, sig);
  if (sig == SIGKILL) {
    // Reap promptly so the test can assert on liveness without racing the
    // heartbeat monitor; the dead socket is noticed by the next dispatch.
    ::waitpid(pid, nullptr, 0);
    mark_dead(w);
  }
}

void WorkerPool::shutdown_all() {
  std::vector<Worker*> workers;
  {
    std::lock_guard lock(mu_);
    for (auto& w : workers_) workers.push_back(w.get());
  }
  for (Worker* w : workers) {
    if (!w->alive.load()) continue;
    try {
      w->control->call(kShutdown, {}, /*timeout_ms=*/1000,
                       /*max_attempts=*/1);
    } catch (const std::runtime_error&) {
      // Already dead or unresponsive; force-reaped below.
    }
  }
  for (Worker* w : workers) reap(*w, /*force_kill=*/true);
}

void WorkerPool::reap(Worker& w, bool force_kill) {
  if (w.info.pid <= 0) return;
  // Give a gracefully-shut-down worker a moment, then force.
  for (int i = 0; i < 20; ++i) {
    const pid_t rc = ::waitpid(w.info.pid, nullptr, WNOHANG);
    if (rc == w.info.pid || (rc < 0 && errno == ECHILD)) {
      w.info.pid = -1;
      w.alive.store(false);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  if (force_kill) {
    ::kill(w.info.pid, SIGKILL);
    ::waitpid(w.info.pid, nullptr, 0);
  }
  w.info.pid = -1;
  w.alive.store(false);
}

void WorkerPool::heartbeat_loop() {
  while (!stop_.load()) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(kHeartbeatIntervalMs));
    std::vector<Worker*> workers;
    {
      std::lock_guard lock(mu_);
      for (auto& w : workers_) workers.push_back(w.get());
    }
    for (Worker* w : workers) {
      if (stop_.load()) return;
      if (!w->alive.load()) continue;
      try {
        w->control->call(kPing, {}, kHeartbeatTimeoutMs,
                         /*max_attempts=*/1);
        w->missed_heartbeats = 0;
      } catch (const std::runtime_error&) {
        if (++w->missed_heartbeats >= kMaxMissedHeartbeats) {
          mark_dead(w->info.id);
        }
      }
    }
  }
}

}  // namespace gpf::runtime
