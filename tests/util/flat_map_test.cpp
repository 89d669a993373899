#include "util/flat_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace astra {
namespace {

TEST(FlatCountMapTest, StartsEmpty) {
  FlatCountMap<std::uint64_t> map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(42), nullptr);
}

TEST(FlatCountMapTest, SubscriptInsertsZeroInitialized) {
  FlatCountMap<std::uint64_t> map;
  EXPECT_EQ(map[7], 0u);
  map[7] += 3;
  map[9] += 1;
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.at(7), 3u);
  EXPECT_EQ(map.at(9), 1u);
  ASSERT_NE(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(7), 3u);
}

TEST(FlatCountMapTest, ZeroKeyIsAnOrdinaryKey) {
  // Open-addressing tables often reserve a sentinel key; key 0 must count.
  FlatCountMap<std::uint64_t> map;
  map[0] += 5;
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.at(0), 5u);
}

TEST(FlatCountMapTest, GrowthPreservesEveryCount) {
  FlatCountMap<std::uint64_t> map;
  // Push well past several rehashes (kMinCapacity 16, load factor 0.7).
  for (std::uint64_t k = 0; k < 10000; ++k) map[k * 2654435761u] += k;
  EXPECT_EQ(map.size(), 10000u);
  for (std::uint64_t k = 0; k < 10000; ++k) {
    ASSERT_NE(map.Find(k * 2654435761u), nullptr) << k;
    EXPECT_EQ(map.at(k * 2654435761u), k);
  }
}

TEST(FlatCountMapTest, SortedItemsIsAscendingAndComplete) {
  FlatCountMap<std::uint32_t> map;
  map[30] = 3;
  map[10] = 1;
  map[20] = 2;
  const auto items = map.SortedItems();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].first, 10u);
  EXPECT_EQ(items[1].first, 20u);
  EXPECT_EQ(items[2].first, 30u);
  EXPECT_EQ(items[2].second, 3u);
}

TEST(FlatCountMapTest, EqualityIsOrderInsensitive) {
  FlatCountMap<std::uint64_t> a;
  FlatCountMap<std::uint64_t> b;
  b.Reserve(1000);  // different capacity, same contents
  for (std::uint64_t k = 1; k <= 50; ++k) {
    a[k] = k;
    b[51 - k] = 51 - k;
  }
  EXPECT_TRUE(a == b);
  b[99] = 1;
  EXPECT_FALSE(a == b);
}

TEST(FlatCountMapTest, FuzzParityWithUnorderedMap) {
  Rng rng(0xf1a7ULL);
  FlatCountMap<std::uint64_t> flat;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  // Skewed key range so the same key is hit repeatedly, like address counts.
  for (int op = 0; op < 50000; ++op) {
    const std::uint64_t key = rng.UniformInt(std::uint64_t{512});
    const std::uint64_t add = 1 + rng.UniformInt(std::uint64_t{4});
    flat[key] += add;
    reference[key] += add;
  }
  ASSERT_EQ(flat.size(), reference.size());
  for (const auto& [key, count] : reference) {
    ASSERT_NE(flat.Find(key), nullptr) << key;
    EXPECT_EQ(flat.at(key), count) << key;
  }
  std::uint64_t iterated = 0;
  for (const auto& [key, count] : flat) {
    EXPECT_EQ(reference.at(key), count);
    ++iterated;
  }
  EXPECT_EQ(iterated, reference.size());
}

}  // namespace
}  // namespace astra
