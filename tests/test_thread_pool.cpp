#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "util/check.hpp"
#include "util/failpoint.hpp"

namespace absq {
namespace {

TEST(AvailableCpus, FollowsTheAffinityMask) {
  EXPECT_GE(available_cpus(), 1u);
#if defined(__linux__)
  // Pinned to one CPU (what `taskset -c 0` does to a whole run), the
  // "auto" worker counts must see one CPU, not every core of the machine.
  cpu_set_t original;
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  std::size_t first = 0;
  while (!CPU_ISSET(first, &original)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  EXPECT_EQ(available_cpus(), 1u);
  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
  EXPECT_EQ(available_cpus(),
            static_cast<unsigned>(CPU_COUNT(&original)));
#endif
}

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool(0), CheckError);
}

TEST(ThreadPool, ReportsThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
}

TEST(ThreadPool, ExecutesAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnFreshPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, WaitIdleBlocksUntilSlowTaskFinishes) {
  ThreadPool pool(1);
  std::atomic<bool> finished{false};
  pool.submit([&finished] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    finished.store(true);
  });
  pool.wait_idle();
  EXPECT_TRUE(finished.load());
}

TEST(ThreadPool, TasksRunConcurrentlyAcrossWorkers) {
  // Two tasks that rendezvous can only complete with ≥2 workers actually
  // executing in parallel.
  ThreadPool pool(2);
  std::atomic<int> arrived{0};
  for (int i = 0; i < 2; ++i) {
    pool.submit([&arrived] {
      arrived.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (arrived.load() < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(arrived.load(), 2);
}

TEST(ThreadPool, DestructorDrainsOutstandingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor joins
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, NoFailureOnCleanPool) {
  ThreadPool pool(2);
  pool.submit([] {});
  pool.wait_idle();
  EXPECT_EQ(pool.failure(), nullptr);
}

TEST(ThreadPool, CapturesFirstEscapingExceptionAndKeepsRunning) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("first"); });
  pool.wait_idle();
  pool.submit([] { throw std::runtime_error("second"); });
  pool.wait_idle();

  // The worker survived both throws and still executes new work.
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran.store(true); });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());

  // Only the first exception is kept.
  const std::exception_ptr failure = pool.failure();
  ASSERT_NE(failure, nullptr);
  try {
    std::rethrow_exception(failure);
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "first");
  }
}

TEST(ThreadPool, InjectedTaskFaultIsCaptured) {
  fail::Registry::instance().arm_from_directives("thread_pool.task=once");
  ThreadPool pool(1);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran.store(true); });
  pool.wait_idle();
  fail::Registry::instance().disarm_all();

  // The injected fault fires before the task body runs and is captured
  // like any other task failure.
  EXPECT_FALSE(ran.load());
  const std::exception_ptr failure = pool.failure();
  ASSERT_NE(failure, nullptr);
  EXPECT_THROW(std::rethrow_exception(failure), fail::FailPointError);
}

TEST(ThreadPool, TasksCanSubmitMoreTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&pool, &counter] {
    counter.fetch_add(1);
    pool.submit([&counter] { counter.fetch_add(1); });
  });
  // wait_idle must observe the chained task too (it was enqueued before the
  // first task completed).
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

}  // namespace
}  // namespace absq
