// Copyright 2026 The WWT Authors
//
// Fixed-size worker pool over a FIFO task queue — the execution substrate
// of the serving layer (WwtService) and the parallel evaluation harness.
// Tasks are arbitrary callables submitted with Submit(); results and
// exceptions travel back through std::future.

#ifndef WWT_UTIL_THREAD_POOL_H_
#define WWT_UTIL_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/thread_annotations.h"

namespace wwt {

/// A fixed set of worker threads draining a shared FIFO queue.
///
/// * Submit() never blocks (the queue is unbounded) and is safe from any
///   thread, including pool workers.
/// * Tasks submitted from one thread start in FIFO order; with more than
///   one worker they naturally run (and finish) concurrently.
/// * An exception thrown by a task is captured into its future and
///   rethrown by future::get() — workers never die from task exceptions.
/// * Shutdown() (implied by the destructor) drains every already-queued
///   task, then joins the workers.
/// * Submit() racing (or following) Shutdown() is well-defined: the task
///   is rejected and its future carries a std::runtime_error — the pool
///   never aborts the process over the race, and the caller finds out
///   the normal way, at future::get().
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Drains the queue and joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn` and returns a future for its result. On a pool that
  /// is shutting down (or already shut down) the task never runs and
  /// the future holds a std::runtime_error instead — see the class
  /// comment on the Submit/Shutdown race.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // promise (not packaged_task) so a rejected task can carry an
    // explicit error; the shared_ptr around fn keeps the wrapper
    // copyable for std::function even when F is move-only.
    auto promise = std::make_shared<std::promise<R>>();
    auto bound = std::make_shared<std::decay_t<F>>(std::forward<F>(fn));
    std::future<R> future = promise->get_future();
    const bool accepted = Enqueue([promise, bound] {
      try {
        if constexpr (std::is_void_v<R>) {
          (*bound)();
          promise->set_value();
        } else {
          promise->set_value((*bound)());
        }
      } catch (...) {
        promise->set_exception(std::current_exception());
      }
    });
    if (!accepted) {
      promise->set_exception(std::make_exception_ptr(std::runtime_error(
          "ThreadPool::Submit on a shut-down pool: task rejected")));
    }
    return future;
  }

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Finishes every queued task, then stops the workers. Idempotent;
  /// called automatically by the destructor.
  void Shutdown() WWT_EXCLUDES(mu_);

  /// Hardware concurrency, always >= 1 (the portable default pool width).
  static int DefaultNumThreads();

 private:
  /// Appends `task` to the queue unless the pool is stopping; returns
  /// whether the task was accepted.
  bool Enqueue(std::function<void()> task) WWT_EXCLUDES(mu_);
  void WorkerLoop() WWT_EXCLUDES(mu_);

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ WWT_GUARDED_BY(mu_);
  /// Set (once, irrevocably) by Shutdown; checked by every Enqueue under
  /// the same lock, which is what makes the Submit/Shutdown race safe.
  bool stopping_ WWT_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(0), ..., fn(n-1) on the pool, keeping at most `concurrency`
/// (clamped to [1, pool->num_threads()]) invocations in flight; indices
/// are claimed dynamically so uneven task costs still balance. Blocks the
/// caller until every index finished. The first exception thrown by any
/// fn(i) is rethrown here (remaining indices may be skipped).
void ParallelFor(ThreadPool* pool, size_t n, int concurrency,
                 const std::function<void(size_t)>& fn);

}  // namespace wwt

#endif  // WWT_UTIL_THREAD_POOL_H_
