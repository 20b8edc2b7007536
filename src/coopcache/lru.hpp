// LRU lists of 64-bit block ids.
//
// `LruLists` is the one list implementation: an array of nodes doubly
// linked in recency order by 32-bit indices, holding any number of lists,
// each just its head, tail and size.  `LruCache` is one such list found
// through a FlatMap from key to node; it backs the server and coordinated
// caches of the cooperative-caching simulator and the client block caches
// of xFS and the central server.  The simulator's client caches are lists
// over one shared `LruLists`, found through its directory instead.
//
// Nodes are added as lists fill, never reserved up to capacity (a building
// holds a thousand zero-capacity client caches), and a freed node is reused
// before a new one is added.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/flat_map.hpp"

namespace now::coopcache {

class LruLists {
 public:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct List {
    std::uint32_t head = kNil;  // MRU
    std::uint32_t tail = kNil;  // LRU
    std::uint32_t size = 0;
  };

  /// The key node `n` holds.
  std::uint64_t key(std::uint32_t n) const { return nodes_[n].key; }

  /// Marks node `n` of `l` most-recently-used.
  void touch(List& l, std::uint32_t n) {
    if (n != l.head) {
      unlink(l, n);
      push_front(l, n);
    }
  }

  /// Adds `key` to the front of `l` in a new node, a freed one if there is
  /// one, and returns the node.
  std::uint32_t push(List& l, std::uint64_t key) {
    std::uint32_t n = free_;
    if (n != kNil) {
      free_ = nodes_[n].next;
    } else {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    nodes_[n].key = key;
    push_front(l, n);
    ++l.size;
    return n;
  }

  /// Evicts the LRU key of non-empty `l` into `*evicted` and moves its node,
  /// now holding `key`, to the front.  Returns the node.
  std::uint32_t replace_lru(List& l, std::uint64_t key,
                            std::uint64_t* evicted) {
    const std::uint32_t n = l.tail;
    unlink(l, n);
    *evicted = nodes_[n].key;
    nodes_[n].key = key;
    push_front(l, n);
    return n;
  }

  /// Unlinks node `n` from `l` and frees it.
  void erase(List& l, std::uint32_t n) {
    unlink(l, n);
    --l.size;
    nodes_[n].next = free_;
    free_ = n;
  }

  /// Calls `f(node)` for each node of `l`, MRU first; stops early, returning
  /// false, after more than `l.size` nodes (a corrupt list).
  template <typename F>
  bool for_each(const List& l, F&& f) const {
    std::uint32_t seen = 0;
    for (std::uint32_t n = l.head; n != kNil; n = nodes_[n].next) {
      if (++seen > l.size) return false;
      f(n);
    }
    return true;
  }

  /// Frees every node; the caller resets its lists.
  void clear() {
    nodes_.clear();
    free_ = kNil;
  }

 private:
  struct Node {
    std::uint64_t key = 0;
    std::uint32_t prev = kNil;  // toward the MRU end
    std::uint32_t next = kNil;  // toward the LRU end; free-list link
  };

  void unlink(List& l, std::uint32_t n) {
    const Node& x = nodes_[n];
    (x.prev == kNil ? l.head : nodes_[x.prev].next) = x.next;
    (x.next == kNil ? l.tail : nodes_[x.next].prev) = x.prev;
  }

  void push_front(List& l, std::uint32_t n) {
    nodes_[n].prev = kNil;
    nodes_[n].next = l.head;
    (l.head == kNil ? l.tail : nodes_[l.head].prev) = n;
    l.head = n;
  }

  std::vector<Node> nodes_;
  std::uint32_t free_ = kNil;  // erased nodes, linked through `next`
};

class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {
    assert(capacity < LruLists::kNil);
  }

  std::size_t size() const { return list_.size; }

  bool contains(std::uint64_t key) const {
    return index_.find(key) != nullptr;
  }

  /// Marks `key` most-recently-used.  Returns false if absent.
  bool touch(std::uint64_t key) {
    const std::uint32_t* found = index_.find(key);
    if (found == nullptr) return false;
    nodes_.touch(list_, *found);
    return true;
  }

  /// Inserts `key` as MRU.  If the cache is full, evicts the LRU entry and
  /// returns it via `evicted` (returns true when an eviction happened).
  /// Inserting a present key just touches it.
  bool insert(std::uint64_t key, std::uint64_t* evicted = nullptr) {
    if (touch(key)) return false;
    if (capacity_ == 0) return false;  // degenerate: cache disabled
    if (list_.size < capacity_) {
      index_.find_or_insert(key, nodes_.push(list_, key));
      return false;
    }
    std::uint64_t victim = 0;  // the victim's node takes the new key
    const std::uint32_t n = nodes_.replace_lru(list_, key, &victim);
    index_.erase(victim);
    index_.find_or_insert(key, n);
    if (evicted != nullptr) *evicted = victim;
    return true;
  }

  /// Removes `key` if present; returns whether it was there.
  bool erase(std::uint64_t key) {
    const std::uint32_t* found = index_.find(key);
    if (found == nullptr) return false;
    const std::uint32_t n = *found;
    index_.erase(key);
    nodes_.erase(list_, n);
    return true;
  }

  void clear() {
    nodes_.clear();
    list_ = LruLists::List{};
    index_.clear();
  }

 private:
  std::size_t capacity_;
  LruLists nodes_;
  LruLists::List list_;
  sim::FlatMap<std::uint32_t> index_;
};

}  // namespace now::coopcache
