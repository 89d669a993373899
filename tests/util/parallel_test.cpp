#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

namespace astra {
namespace {

TEST(ParallelForTest, VisitsEveryIndexOnce) {
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> visits(kCount);
  ParallelFor(kCount, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, ZeroCountIsNoop) {
  bool called = false;
  ParallelFor(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, SmallCountRunsInline) {
  std::vector<int> order;
  ParallelFor(10, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  // Below the serial threshold, execution is in-order on the calling thread.
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ParallelForTest, ResultIndependentOfThreadCount) {
  constexpr std::size_t kCount = 5000;
  std::vector<double> serial(kCount), parallel_out(kCount);
  auto work = [](std::size_t i) { return static_cast<double>(i) * 1.5 + 1.0; };
  ParallelFor(kCount, [&](std::size_t i) { serial[i] = work(i); }, 1);
  ParallelFor(kCount, [&](std::size_t i) { parallel_out[i] = work(i); });
  EXPECT_EQ(serial, parallel_out);
}

TEST(ParallelForRangesTest, RangesPartitionExactly) {
  constexpr std::size_t kCount = 1237;
  std::vector<std::atomic<int>> visits(kCount);
  ParallelForRanges(kCount, [&](std::size_t begin, std::size_t end) {
    ASSERT_LE(begin, end);
    for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(visits[i].load(), 1);
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
