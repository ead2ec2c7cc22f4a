#include "common/thread_pool.hpp"

#include <algorithm>

namespace gpf {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool*& ThreadPool::current_pool() {
  static thread_local ThreadPool* pool = nullptr;
  return pool;
}

void ThreadPool::worker_loop() {
  current_pool() = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      // Stopping still drains: a worker leaves only once the list is empty.
      if (tasks_.empty()) return;
      task = std::move(tasks_.back());
      tasks_.pop_back();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (on_worker_thread()) {
    // Nested parallelism: every worker may already be blocked in an outer
    // parallel_for's f.get(), so chunks submitted here could never be
    // scheduled.  Running inline keeps the caller's worker productive and
    // cannot deadlock.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const std::size_t blocks = std::min(n, size() * 4);
  const std::size_t chunk = (n + blocks - 1) / blocks;
  std::vector<std::future<void>> futs;
  futs.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = b * chunk;
    const std::size_t hi = std::min(n, lo + chunk);
    if (lo >= hi) break;
    futs.push_back(submit([lo, hi, &fn] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  // Drain every chunk before propagating a failure.  Rethrowing on the
  // first get() would return while queued chunks still reference `fn`,
  // whose lifetime ends with the caller's stack frame — a use-after-free
  // once the pool schedules them.  All iterations either ran or threw by
  // the time this returns; the first exception wins, later ones are
  // dropped (each retryable body should be idempotent anyway, per the
  // stage executor's contract).
  std::exception_ptr first_error;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace gpf
