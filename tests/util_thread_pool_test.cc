// Copyright 2026 The WWT Authors
//
// ThreadPool: ordering, concurrency, exception propagation, shutdown
// draining, the Submit-racing-Shutdown contract (part of the TSan race
// tier, `ctest -L race`), and the ParallelFor helper.

#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace wwt {
namespace {

TEST(ThreadPoolTest, SubmitReturnsResultThroughFuture) {
  ThreadPool pool(2);
  std::future<int> f = pool.Submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ClampsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  EXPECT_EQ(pool.Submit([] { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, SingleWorkerRunsTasksInFifoOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> done;
  for (int i = 0; i < 100; ++i) {
    done.push_back(pool.Submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : done) f.get();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, WorkersActuallyRunConcurrently) {
  // Two tasks that can only finish if they run at the same time: each
  // waits for the other's arrival. One worker would deadlock; two (real
  // OS threads, even on one core) finish.
  ThreadPool pool(2);
  std::atomic<int> arrived{0};
  auto rendezvous = [&arrived] {
    arrived.fetch_add(1);
    while (arrived.load() < 2) std::this_thread::yield();
  };
  std::future<void> a = pool.Submit(rendezvous);
  std::future<void> b = pool.Submit(rendezvous);
  EXPECT_EQ(a.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(b.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  a.get();
  b.get();
}

TEST(ThreadPoolTest, TaskExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  std::future<int> f =
      pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(
      {
        try {
          f.get();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "boom");
          throw;
        }
      },
      std::runtime_error);
}

TEST(ThreadPoolTest, PoolSurvivesThrowingTasks) {
  ThreadPool pool(1);
  auto bad = pool.Submit([] { throw std::runtime_error("first"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran.fetch_add(1);
      });
    }
    // Destructor implies Shutdown(): every queued task must still run.
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPoolTest, SubmitAfterShutdownRejectsWithRuntimeError) {
  // The deterministic half of the Submit/Shutdown contract: once
  // Shutdown() has returned, Submit must not enqueue (the workers are
  // gone — the task would never run) and must not crash. The returned
  // future carries std::runtime_error instead.
  ThreadPool pool(2);
  EXPECT_EQ(pool.Submit([] { return 1; }).get(), 1);
  pool.Shutdown();

  std::future<int> rejected = pool.Submit([] { return 2; });
  EXPECT_THROW(
      {
        try {
          rejected.get();
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("shut-down"),
                    std::string::npos);
          throw;
        }
      },
      std::runtime_error);

  // Shutdown is idempotent and later rejections behave the same.
  pool.Shutdown();
  EXPECT_THROW(pool.Submit([] {}).get(), std::runtime_error);
}

TEST(ThreadPoolTest, SubmitRacingShutdownNeverLosesATask) {
  // The racy half: submitters hammer Submit while another thread calls
  // Shutdown at an arbitrary point. Every future must settle — either
  // with its value (the task was accepted and Shutdown drained it) or
  // with the rejection error. No crash, no hang, no future left forever
  // pending. Run under TSan in the race tier (`ctest -L race`).
  constexpr int kRounds = 25;
  constexpr int kSubmitters = 4;
  constexpr int kTasksPerSubmitter = 50;
  for (int round = 0; round < kRounds; ++round) {
    ThreadPool pool(2);
    std::atomic<int> executed{0};
    std::mutex futures_mu;
    std::vector<std::future<int>> futures;

    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&pool, &executed, &futures_mu, &futures] {
        for (int i = 0; i < kTasksPerSubmitter; ++i) {
          std::future<int> f = pool.Submit([&executed] {
            executed.fetch_add(1);
            return 1;
          });
          std::lock_guard<std::mutex> lock(futures_mu);
          futures.push_back(std::move(f));
        }
      });
    }
    std::thread stopper([&pool] { pool.Shutdown(); });
    for (auto& t : submitters) t.join();
    stopper.join();

    int accepted = 0;
    int rejected = 0;
    for (auto& f : futures) {
      try {
        accepted += f.get();
      } catch (const std::runtime_error&) {
        ++rejected;
      }
    }
    // Accounting closes: every accepted task ran, every other submission
    // was rejected, and nothing fell through the crack between
    // Enqueue's stopping_ check and the worker drain.
    EXPECT_EQ(accepted, executed.load());
    EXPECT_EQ(accepted + rejected, kSubmitters * kTasksPerSubmitter);
  }
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  ParallelFor(&pool, hits.size(), 4,
              [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelForTest, HandlesZeroItemsAndOddConcurrency) {
  ThreadPool pool(2);
  ParallelFor(&pool, 0, 2, [](size_t) { FAIL() << "no items to visit"; });

  std::atomic<int> count{0};
  ParallelFor(&pool, 5, 0, [&count](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 5);
  ParallelFor(&pool, 5, 99, [&count](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ParallelForTest, PropagatesBodyException) {
  ThreadPool pool(2);
  EXPECT_THROW(ParallelFor(&pool, 10, 2,
                           [](size_t i) {
                             if (i == 3) throw std::runtime_error("bad");
                           }),
               std::runtime_error);
  // The pool is still serviceable afterwards.
  EXPECT_EQ(pool.Submit([] { return 5; }).get(), 5);
}

TEST(ParallelForTest, BalancesUnevenWork) {
  // One expensive index plus many cheap ones: dynamic claiming must let
  // the other worker take the cheap tail instead of pre-splitting.
  ThreadPool pool(2);
  std::atomic<int> done{0};
  ParallelFor(&pool, 64, 2, [&done](size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 64);
}

}  // namespace
}  // namespace wwt
