#include "bbb/par/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>

#include "bbb/par/parallel_for.hpp"

namespace bbb::par {
namespace {

TEST(ThreadPool, ResolveThreads) {
  EXPECT_EQ(ThreadPool::resolve_threads(4), 4u);
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
}

TEST(ThreadPool, RejectsWorkerCountsAboveTheCap) {
  // --threads=100000 used to spend seconds spawning threads before any
  // work ran; the pool now refuses up front.
  EXPECT_THROW(ThreadPool(ThreadPool::kMaxThreads + 1), std::invalid_argument);
  EXPECT_THROW(ThreadPool(100'000), std::invalid_argument);
  EXPECT_LE(ThreadPool::resolve_threads(0), ThreadPool::kMaxThreads);
}

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnFreshPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor joins
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelFor, CoversExactRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, 1000, [&](std::uint64_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(pool, 5, 5, [&](std::uint64_t) { ++calls; });
  parallel_for(pool, 7, 3, [&](std::uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, PropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 0, 10,
                            [](std::uint64_t i) {
                              if (i == 3) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ParallelFor, MoreItemsThanThreads) {
  ThreadPool pool(2);
  std::atomic<std::uint64_t> sum{0};
  parallel_for(pool, 1, 101,
               [&](std::uint64_t i) { sum.fetch_add(i, std::memory_order_relaxed); });
  EXPECT_EQ(sum.load(), 5050u);
}

TEST(ParallelMap, ResultsInIndexOrder) {
  ThreadPool pool(4);
  const auto out = parallel_map<std::uint64_t>(
      pool, 64, [](std::uint64_t i) { return i * i; });
  ASSERT_EQ(out.size(), 64u);
  for (std::uint64_t i = 0; i < 64; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelMap, SingleThreadPoolMatchesMultiThread) {
  ThreadPool p1(1), p4(4);
  const auto f = [](std::uint64_t i) { return 3 * i + 1; };
  EXPECT_EQ(parallel_map<std::uint64_t>(p1, 200, f),
            parallel_map<std::uint64_t>(p4, 200, f));
}

}  // namespace
}  // namespace bbb::par
