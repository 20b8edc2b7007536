// An open-addressing hash map from 64-bit keys to small trivially copyable
// values: the one table behind the cooperative cache's manager directory
// and LruCache's index, and behind the protocol layers' per-endpoint pair
// state and outstanding-call slots.
//
// Linear probing over a power-of-two table.  Keys are hashed
// multiplicatively (Fibonacci hashing): block ids are small dense integers,
// which an identity hash would lay out as long probe runs.  Erase shifts
// the rest of the probe chain back into the hole, so there are no
// tombstones and an erase-heavy LRU never degrades.  The table doubles
// before it passes 50% load and allocates nothing until the first insert:
// a building keeps a thousand disabled client caches beside its server's,
// and a thousand AM endpoints that may never send.
//
// The all-ones key marks an empty slot and cannot be stored.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace now::sim {

template <typename V>
class FlatMap {
  static_assert(std::is_trivially_copyable_v<V>);

 public:
  std::size_t size() const { return size_; }

  /// The value stored under `key`, or nullptr.  Valid until the next
  /// insert or erase.
  V* find(std::uint64_t key) {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = bucket(key);; i = next(i)) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == kEmptyKey) return nullptr;
    }
  }
  const V* find(std::uint64_t key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }

  /// The value stored under `key`, inserting `init` first if absent.
  /// Valid until the next insert or erase.
  V& find_or_insert(std::uint64_t key, V init = V{}) {
    assert(key != kEmptyKey);
    if (!slots_.empty()) {
      std::size_t i = bucket(key);
      for (; slots_[i].key != kEmptyKey; i = next(i)) {
        if (slots_[i].key == key) return slots_[i].value;
      }
      if (2 * (size_ + 1) <= slots_.size()) return place(i, key, init);
    }
    grow();
    return place(free_slot(key), key, init);
  }

  /// Removes `key` if present; returns whether it was there.
  bool erase(std::uint64_t key) {
    if (slots_.empty()) return false;
    std::size_t hole = bucket(key);
    for (; slots_[hole].key != key; hole = next(hole)) {
      if (slots_[hole].key == kEmptyKey) return false;
    }
    // Backward shift: a later entry of the chain moves into the hole unless
    // its home slot lies cyclically in (hole, j], where a probe for it
    // starts past the hole.
    for (std::size_t j = next(hole); slots_[j].key != kEmptyKey; j = next(j)) {
      const std::size_t from_home = (j - bucket(slots_[j].key)) & mask_;
      if (from_home >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].key = kEmptyKey;
    --size_;
    return true;
  }

  /// Calls `f(key, value)` for every entry, in table order.
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmptyKey) f(s.key, s.value);
    }
  }

  /// Removes every entry; keeps the table.
  void clear() {
    for (Slot& s : slots_) s.key = kEmptyKey;
    size_ = 0;
  }

  /// Slots in the table: 0 before the first insert, then a power of two at
  /// least twice size().
  std::size_t bucket_count() const { return slots_.size(); }
  /// The slot where a probe for `key` starts.  Table must be non-empty.
  std::size_t bucket(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }

 private:
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
  static constexpr std::size_t kInitialSlots = 16;

  struct Slot {
    std::uint64_t key;
    V value;
  };

  std::size_t next(std::size_t i) const { return (i + 1) & mask_; }

  std::size_t free_slot(std::uint64_t key) const {
    std::size_t i = bucket(key);
    while (slots_[i].key != kEmptyKey) i = next(i);
    return i;
  }

  V& place(std::size_t i, std::uint64_t key, V value) {
    slots_[i] = Slot{key, value};
    ++size_;
    return slots_[i].value;
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? kInitialSlots : 2 * slots_.size(),
                          Slot{kEmptyKey, V{}});
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    shift_ = 64 - std::countr_zero(slots_.size());
    for (const Slot& s : old) {
      if (s.key != kEmptyKey) slots_[free_slot(s.key)] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace now::sim
