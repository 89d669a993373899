#include "util/flat_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
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

TEST(FlatHashSetTest, ZeroIsAnOrdinaryValue) {
  // 0 marks a free slot internally; the value 0 must still be a member.
  FlatHashSet set;
  EXPECT_FALSE(set.Contains(0));
  EXPECT_TRUE(set.Insert(0));
  EXPECT_FALSE(set.Insert(0));
  EXPECT_TRUE(set.Contains(0));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.SortedValues(), std::vector<std::uint64_t>{0});
  EXPECT_FALSE(set.Contains(1));
}

TEST(FlatHashSetTest, GrowsAcrossRehashesKeepingEveryValue) {
  FlatHashSet set;
  for (std::uint64_t v = 1; v <= 10000; ++v) ASSERT_TRUE(set.Insert(v * 3));
  EXPECT_EQ(set.size(), 10000u);
  for (std::uint64_t v = 1; v <= 10000; ++v) {
    EXPECT_TRUE(set.Contains(v * 3)) << v;
    EXPECT_FALSE(set.Contains(v * 3 + 1)) << v;
    EXPECT_FALSE(set.Insert(v * 3)) << v;
  }
  set.Reserve(50000);  // growing a populated table keeps its members
  EXPECT_EQ(set.size(), 10000u);
  EXPECT_TRUE(set.Contains(30000));
}

TEST(FlatHashSetTest, SortedValuesAscendAndIgnoreInsertionOrder) {
  FlatHashSet a;
  FlatHashSet b;
  const std::vector<std::uint64_t> values{~std::uint64_t{0}, 7, 0, 1ULL << 63, 42};
  for (const std::uint64_t v : values) a.Insert(v);
  for (auto it = values.rbegin(); it != values.rend(); ++it) b.Insert(*it);
  std::vector<std::uint64_t> expected = values;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(a.SortedValues(), expected);
  EXPECT_EQ(b.SortedValues(), expected);
}

TEST(FlatHashSetTest, FuzzParityWithUnorderedSet) {
  Rng rng(0xdedbULL);
  FlatHashSet flat;
  std::unordered_set<std::uint64_t> reference;
  for (int op = 0; op < 50000; ++op) {
    // Mix a dense low range (many repeats, 0 included) with full-width values.
    const std::uint64_t value = rng.Bernoulli(0.5) ? rng.UniformInt(std::uint64_t{2048})
                                                   : rng();
    ASSERT_EQ(flat.Insert(value), reference.insert(value).second) << value;
    const std::uint64_t probe = rng.UniformInt(std::uint64_t{4096});
    ASSERT_EQ(flat.Contains(probe), reference.count(probe) == 1) << probe;
  }
  ASSERT_EQ(flat.size(), reference.size());
  std::vector<std::uint64_t> expected(reference.begin(), reference.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(flat.SortedValues(), expected);
}

}  // namespace
}  // namespace astra
