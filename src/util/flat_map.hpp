// FlatCountMap: open-addressing counter map for the analysis hot path, and
// FlatHashSet: the open-addressing set of 64-bit hash values behind ingest
// dedup (logs/ingest_machine.hpp).
//
// The coalescer bumps one counter per key per record (address -> errors,
// column -> errors, bit -> errors).  Node-based maps pay a heap allocation
// for every new key and a pointer chase per lookup; this table keeps its
// slots in one contiguous power-of-two array (linear probing, ~0.7 max
// load), so the per-record increment is a hash, a probe over adjacent
// slots, and an add.
//
// ITERATION ORDER IS UNSPECIFIED (it follows the probe layout).  Callers on
// the determinism-sensitive paths must traverse via sorted keys exactly as
// they would for std::unordered_map — SortedItems() packages that idiom.
// Equality is order-insensitive set equality, so accumulators built in
// different shard orders still compare equal.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace astra {

template <typename Key>
class FlatCountMap {
 public:
  using key_type = Key;  // enables the generic SortedKeys idiom
  using Item = std::pair<Key, std::uint64_t>;

  FlatCountMap() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  void clear() noexcept {
    slots_.clear();
    size_ = 0;
  }

  // Pre-size for `expected` distinct keys (Restore knows the count up front).
  void Reserve(std::size_t expected) {
    std::size_t capacity = kMinCapacity;
    while (capacity * kMaxLoadNum < expected * kMaxLoadDen) capacity <<= 1;
    if (capacity > slots_.size()) Rehash(capacity);
  }

  // Insert-or-find; the reference stays valid until the next insertion.
  [[nodiscard]] std::uint64_t& operator[](Key key) {
    if ((size_ + 1) * kMaxLoadDen > slots_.size() * kMaxLoadNum) {
      Rehash(std::max<std::size_t>(slots_.size() * 2, kMinCapacity));
    }
    Slot& slot = *FindSlot(slots_, key);
    if (!slot.used) {
      slot.used = true;
      slot.item = Item{key, 0};
      ++size_;
    }
    return slot.item.second;
  }

  // Lookup; nullptr when absent.
  [[nodiscard]] const std::uint64_t* Find(Key key) const noexcept {
    if (slots_.empty()) return nullptr;
    const Slot& slot = *FindSlot(slots_, key);
    return slot.used ? &slot.item.second : nullptr;
  }

  // Count for a key that must be present (the Snapshot sorted-key walk).
  [[nodiscard]] std::uint64_t at(Key key) const noexcept {
    const std::uint64_t* count = Find(key);
    assert(count != nullptr);
    return count == nullptr ? 0 : *count;
  }

  // The determinism idiom in one call: every (key, count) pair in ascending
  // key order, for serialization and order-sensitive reductions.
  [[nodiscard]] std::vector<Item> SortedItems() const {
    std::vector<Item> items;
    items.reserve(size_);
    for (const Slot& slot : slots_) {
      if (slot.used) items.push_back(slot.item);
    }
    std::sort(items.begin(), items.end());
    return items;
  }

  // Unordered traversal (yields pair<Key, count>); see the header comment.
  class const_iterator {
   public:
    const_iterator(const FlatCountMap* map, std::size_t index) noexcept
        : map_(map), index_(index) {
      SkipFree();
    }
    [[nodiscard]] const Item& operator*() const noexcept {
      return map_->slots_[index_].item;
    }
    const_iterator& operator++() noexcept {
      ++index_;
      SkipFree();
      return *this;
    }
    [[nodiscard]] bool operator!=(const const_iterator& other) const noexcept {
      return index_ != other.index_;
    }

   private:
    void SkipFree() noexcept {
      while (index_ < map_->slots_.size() && !map_->slots_[index_].used) ++index_;
    }
    const FlatCountMap* map_;
    std::size_t index_;
  };

  [[nodiscard]] const_iterator begin() const noexcept {
    return const_iterator{this, 0};
  }
  [[nodiscard]] const_iterator end() const noexcept {
    return const_iterator{this, slots_.size()};
  }

  // Order-insensitive set equality (same keys, same counts).
  [[nodiscard]] friend bool operator==(const FlatCountMap& a, const FlatCountMap& b) {
    if (a.size_ != b.size_) return false;
    for (const Slot& slot : a.slots_) {
      if (!slot.used) continue;
      const std::uint64_t* count = b.Find(slot.item.first);
      if (count == nullptr || *count != slot.item.second) return false;
    }
    return true;
  }

 private:
  struct Slot {
    Item item{};
    bool used = false;
  };

  static constexpr std::size_t kMinCapacity = 16;
  // Max load factor kMaxLoadNum / kMaxLoadDen (0.7).
  static constexpr std::size_t kMaxLoadNum = 7;
  static constexpr std::size_t kMaxLoadDen = 10;

  // splitmix64 finalizer: sequential keys (physical addresses, columns)
  // spread over the table instead of clustering one probe run.
  [[nodiscard]] static std::uint64_t Mix(Key key) noexcept {
    auto x = static_cast<std::uint64_t>(key);
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

  // First slot holding `key` or the first free slot of its probe run.
  // Templated on the slot vector so the const and mutating paths share it.
  template <typename Slots>
  [[nodiscard]] static auto* FindSlot(Slots& slots, Key key) noexcept {
    const std::size_t mask = slots.size() - 1;
    std::size_t index = static_cast<std::size_t>(Mix(key)) & mask;
    while (slots[index].used && slots[index].item.first != key) {
      index = (index + 1) & mask;
    }
    return &slots[index];
  }

  void Rehash(std::size_t capacity) {
    std::vector<Slot> next(capacity);
    for (Slot& slot : slots_) {
      if (slot.used) *FindSlot(next, slot.item.first) = std::move(slot);
    }
    slots_ = std::move(next);
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

// A set of 64-bit values in one power-of-two array of 8-byte slots (linear
// probing, ~0.7 max load).  The slot value 0 means "free", so the value 0
// itself is kept in a flag beside the array.  Values are usually hashes
// already; the home slot is still taken from a Fibonacci multiply's high
// bits so sequential values spread too.  Iteration order would follow the
// probe layout, so the only export is SortedValues().
class FlatHashSet {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_ + (has_zero_ ? 1 : 0); }

  // Pre-size for `expected` distinct values.
  void Reserve(std::size_t expected) {
    std::size_t capacity = kMinCapacity;
    while (capacity * kMaxLoadNum < expected * kMaxLoadDen) capacity <<= 1;
    if (capacity > slots_.size()) Rehash(capacity);
  }

  // True when `value` was not present before.
  bool Insert(std::uint64_t value) {
    if (value == 0) return !std::exchange(has_zero_, true);
    if ((size_ + 1) * kMaxLoadDen > slots_.size() * kMaxLoadNum) {
      Rehash(std::max<std::size_t>(slots_.size() * 2, kMinCapacity));
    }
    std::uint64_t& slot = slots_[FindIndex(slots_, value)];
    if (slot == value) return false;
    slot = value;
    ++size_;
    return true;
  }

  [[nodiscard]] bool Contains(std::uint64_t value) const noexcept {
    if (value == 0) return has_zero_;
    return !slots_.empty() && slots_[FindIndex(slots_, value)] == value;
  }

  // Every value in ascending order: the deterministic export.
  [[nodiscard]] std::vector<std::uint64_t> SortedValues() const {
    std::vector<std::uint64_t> values;
    values.reserve(size());
    if (has_zero_) values.push_back(0);
    for (const std::uint64_t slot : slots_) {
      if (slot != 0) values.push_back(slot);
    }
    std::sort(values.begin(), values.end());
    return values;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kMaxLoadNum = 7;
  static constexpr std::size_t kMaxLoadDen = 10;

  // Index of the slot holding `value` or of the free slot ending its run;
  // the probe starts at the high bits of a Fibonacci multiply.
  [[nodiscard]] static std::size_t FindIndex(const std::vector<std::uint64_t>& slots,
                                             std::uint64_t value) noexcept {
    const std::size_t mask = slots.size() - 1;
    std::size_t index = static_cast<std::size_t>(
        (value * 0x9E3779B97F4A7C15ULL) >> (64 - std::countr_zero(slots.size())));
    while (slots[index] != 0 && slots[index] != value) index = (index + 1) & mask;
    return index;
  }

  void Rehash(std::size_t capacity) {
    std::vector<std::uint64_t> next(capacity, 0);
    for (const std::uint64_t slot : slots_) {
      if (slot != 0) next[FindIndex(next, slot)] = slot;
    }
    slots_ = std::move(next);
  }

  std::vector<std::uint64_t> slots_;
  std::size_t size_ = 0;  // nonzero values stored in slots_
  bool has_zero_ = false;
};

}  // namespace astra
