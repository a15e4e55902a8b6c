// Work-stealing pool: results land in index order, exceptions propagate,
// nothing is lost or run twice — including when shutdown races a job.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runner/thread_pool.hpp"

namespace armbar::runner {
namespace {

TEST(ThreadPool, HardwareJobsAtLeastOne) {
  EXPECT_GE(ThreadPool::hardware_jobs(), 1u);
}

TEST(ThreadPool, SpawnsAtLeastOneWorker) {
  ThreadPool p(0);
  EXPECT_GE(p.size(), 1u);
}

TEST(ThreadPool, ResultsInIndexOrder) {
  ThreadPool pool(4);
  const std::size_t n = 500;
  std::vector<std::size_t> out(n, 0);
  pool.parallel_for(n, [&](std::size_t i) { out[i] = i * 2 + 1; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], i * 2 + 1);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(3);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> counts(n);
  pool.parallel_for(n, [&](std::size_t i) { counts[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(counts[i].load(), 1);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 5; ++round)
    pool.parallel_for(100, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 500u);
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, FirstExceptionPropagates) {
  ThreadPool pool(2);
  std::atomic<std::size_t> ran{0};
  try {
    pool.parallel_for(64, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 17) throw std::runtime_error("boom at 17");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
  // Remaining tasks still complete (the pool drains before rethrowing).
  EXPECT_EQ(ran.load(), 64u);
}

TEST(ThreadPoolShutdown, ParallelForOnShutDownPoolThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.parallel_for(8, [](std::size_t) {}), std::runtime_error);
}

TEST(ThreadPoolShutdown, ShutdownTwiceIsSafe) {
  ThreadPool pool(2);
  pool.shutdown();
  pool.shutdown();  // destructor will make it a third time
}

TEST(ThreadPoolShutdown, ExceptionAfterShutdownBeginsReachesTheWaiter) {
  // The regression this guards: a task that throws after shutdown() has
  // been called must still deliver its exception to the parallel_for
  // waiter — not vanish, not hang the wait.
  ThreadPool pool(2);
  std::atomic<bool> task_started{false};
  std::atomic<bool> shutdown_begun{false};

  std::thread closer([&] {
    while (!task_started.load()) std::this_thread::yield();
    shutdown_begun.store(true);
    pool.shutdown();
  });

  try {
    pool.parallel_for(32, [&](std::size_t i) {
      if (i == 0) {
        task_started.store(true);
        while (!shutdown_begun.load()) std::this_thread::yield();
        throw std::runtime_error("boom after shutdown began");
      }
    });
    FAIL() << "task exception was lost";
  } catch (const std::runtime_error& e) {
    // The task's own exception outranks the queued-tasks-cancelled error.
    EXPECT_NE(std::string(e.what()).find("boom after shutdown"),
              std::string::npos)
        << e.what();
  }
  closer.join();
}

TEST(ThreadPoolShutdown, ShutdownRacingAJobNeverHangsOrDoublesWork) {
  // Whatever the interleaving, parallel_for must return (value or error)
  // and no index may execute twice. Repeat to cover several interleavings.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(3);
    const std::size_t n = 64;
    std::vector<std::atomic<int>> counts(n);
    std::atomic<bool> returned{false};

    std::thread runner([&] {
      try {
        pool.parallel_for(n, [&](std::size_t i) {
          counts[i].fetch_add(1);
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        });
      } catch (const std::runtime_error&) {
        // cancellation error is an acceptable outcome of the race
      }
      returned.store(true);
    });

    std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
    pool.shutdown();
    runner.join();
    EXPECT_TRUE(returned.load());
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_LE(counts[i].load(), 1) << "index " << i << " ran twice";
  }
}

TEST(ThreadPool, LargeFanOutSumsCorrectly) {
  ThreadPool pool(4);
  const std::size_t n = 2048;
  std::vector<std::uint64_t> out(n);
  pool.parallel_for(n, [&](std::size_t i) { out[i] = i; });
  const std::uint64_t sum = std::accumulate(out.begin(), out.end(), 0ull);
  EXPECT_EQ(sum, static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST(ThreadPool, ThousandsOfTinyJobsNeverOutliveTheirWaiter) {
  // parallel_for's Job lives on the caller's stack. The worker finishing
  // the last task must be done with it before the waiter can return and
  // destroy it; with one or two tasks per job the waiter races that worker
  // every time. A thread sanitizer build flags any touch of a finished Job.
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  std::size_t expected = 0;
  for (std::size_t round = 0; round < 5000; ++round) {
    const std::size_t n = 1 + round % 2;
    pool.parallel_for(n, [&](std::size_t) { total.fetch_add(1); });
    expected += n;
  }
  EXPECT_EQ(total.load(), expected);
}

}  // namespace
}  // namespace armbar::runner
