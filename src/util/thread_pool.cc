#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <climits>

namespace wwt {

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(num_threads, 1);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

int ThreadPool::DefaultNumThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

bool ThreadPool::Enqueue(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    if (stopping_) return false;  // lost the race: Submit fails the future
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
  return true;
}

void ThreadPool::Shutdown() {
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // stopping_ and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // Submit's wrapper routes any exception into the task's future; a
    // bare std::function task that throws would terminate, as with
    // std::thread.
    task();
  }
}

void ParallelFor(ThreadPool* pool, size_t n, int concurrency,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  int shards = concurrency <= 0 ? pool->num_threads() : concurrency;
  shards = std::min<int>({shards, pool->num_threads(),
                          static_cast<int>(std::min<size_t>(n, INT_MAX))});

  auto next = std::make_shared<std::atomic<size_t>>(0);
  std::vector<std::future<void>> done;
  done.reserve(shards);
  for (int s = 0; s < shards; ++s) {
    done.push_back(pool->Submit([next, n, &fn] {
      for (size_t i = next->fetch_add(1); i < n; i = next->fetch_add(1)) {
        fn(i);
      }
    }));
  }
  // Every shard must finish before we return (or rethrow): they hold
  // references to the caller's stack (`fn`, `n`). The first exception is
  // saved and rethrown only once all shards are done.
  std::exception_ptr first_error;
  for (std::future<void>& f : done) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace wwt
