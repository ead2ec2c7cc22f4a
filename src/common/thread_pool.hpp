// Fixed-size thread pool used by the execution engine.
//
// One task list, one mutex, one condition variable.  Load balance is the
// read-count repartition's job (PartitionInfo::apply_split), not the
// pool's: every task reaches the pool from outside it (execute_stage and
// parallel_for submit from the calling thread; a nested parallel_for runs
// inline), so one shared list keeps every worker busy.  The pool stays
// allocation-light: it is the substrate every other module builds on, so
// predictability beats cleverness here.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gpf {

/// A fixed-size pool of worker threads sharing one task list.  An idle
/// worker takes the newest queued task, so a burst of submissions starts
/// with its last task; the engine never depends on start order.
///
/// Thread-safe: submit() may be called concurrently from any thread,
/// including from inside a task (tasks must not block on tasks that cannot
/// be scheduled, but the engine only submits leaf work so this cannot
/// deadlock).  The destructor runs every queued task before it joins the
/// workers.
class ThreadPool {
 public:
  /// Creates a pool with `threads` workers (defaults to hardware
  /// concurrency, minimum 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// Enqueues `fn` and returns a future for its result.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mu_);
      tasks_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs `fn(i)` for i in [0, n) across the pool and blocks until all
  /// iterations complete.  Iterations are distributed in contiguous blocks.
  /// Safe to call from inside a task running on this pool: a nested call
  /// executes its iterations inline on the calling worker, because queued
  /// chunks could otherwise wait forever behind workers that are all
  /// blocked in outer parallel_for calls.
  /// An exception thrown by `fn` propagates to the caller — after every
  /// other chunk has finished, so `fn` is never referenced past the call's
  /// return.  When several chunks throw, the earliest-submitted chunk's
  /// exception wins.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const { return current_pool() == this; }

  /// Global pool shared by code that does not need a private one.
  static ThreadPool& global();

 private:
  void worker_loop();

  /// The pool whose worker_loop the calling thread is running, if any.
  static ThreadPool*& current_pool();

  std::mutex mu_;
  std::condition_variable cv_;
  /// Queued tasks, newest at the back.  Guarded by mu_.
  std::vector<std::function<void()>> tasks_;
  bool stop_ = false;  // guarded by mu_
  /// Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace gpf
