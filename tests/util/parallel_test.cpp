#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>
#include <vector>

namespace astra {
namespace {

TEST(ParallelShardsTest, VisitsEveryIndexOnce) {
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> visits(kCount);
  ParallelShards(kCount, ResolveThreadCount(0),
                 [&](std::size_t, std::size_t begin, std::size_t end) {
                   for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
                 });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelShardsTest, ZeroCountIsNoop) {
  bool called = false;
  ParallelShards(0, 4, [&](std::size_t, std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelShardsTest, ResultIndependentOfThreadCount) {
  constexpr std::size_t kCount = 5000;
  std::vector<double> serial(kCount), parallel_out(kCount);
  auto work = [](std::size_t i) { return static_cast<double>(i) * 1.5 + 1.0; };
  ParallelShards(kCount, 1, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) serial[i] = work(i);
  });
  ParallelShards(kCount, 7, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) parallel_out[i] = work(i);
  });
  EXPECT_EQ(serial, parallel_out);
}

TEST(ParallelShardsTest, ShardsAreTheBalancedSplit) {
  // ParallelShards hands shard s exactly SplitIndexRanges' range s: sizes
  // differ by at most one, larger shards first, in index order.
  const std::pair<std::size_t, std::size_t> cases[] = {
      {10, 3}, {7, 7}, {5, 8}, {1237, 4}, {9, 1}, {9, 0}, {0, 3}};
  for (const auto& [count, shards] : cases) {
    SCOPED_TRACE(std::to_string(count) + " items, " + std::to_string(shards) + " shards");
    const auto expected = SplitIndexRanges(count, std::max<std::size_t>(shards, 1));
    std::vector<std::pair<std::size_t, std::size_t>> seen(expected.size());
    std::atomic<int> calls{0};
    ParallelShards(count, shards, [&](std::size_t s, std::size_t begin, std::size_t end) {
      ASSERT_LT(s, seen.size());
      seen[s] = {begin, end};
      calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), static_cast<int>(expected.size()));
    EXPECT_EQ(seen, expected);
    std::size_t next = 0;
    for (std::size_t s = 0; s < expected.size(); ++s) {
      EXPECT_EQ(expected[s].first, next);
      const std::size_t size = expected[s].second - expected[s].first;
      EXPECT_EQ(size, count / expected.size() + (s < count % expected.size() ? 1 : 0));
      next = expected[s].second;
    }
    EXPECT_EQ(next, count);
  }
}

TEST(ThreadPoolTest, ExecutesAllSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, ReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, SharedPoolSingleton) {
  EXPECT_EQ(&ThreadPool::Shared(), &ThreadPool::Shared());
  EXPECT_GE(ThreadPool::Shared().ThreadCount(), 1u);
}

}  // namespace
}  // namespace astra
