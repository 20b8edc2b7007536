// An LRU cache of 64-bit block ids: an array of nodes doubly linked in
// recency order by 32-bit indices, found through a FlatMap from key to
// node.
//
// Used by the cooperative-caching simulator for client and server caches
// and reused by the client block caches of xFS and the central server.
// Nodes are added as the cache fills, never reserved up to capacity (a
// building holds a thousand zero-capacity client caches), and a freed node
// is reused before a new one is added.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/flat_map.hpp"

namespace now::coopcache {

class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {
    assert(capacity < kNil);
  }

  std::size_t size() const { return index_.size(); }

  bool contains(std::uint64_t key) const {
    return index_.find(key) != nullptr;
  }

  /// Marks `key` most-recently-used.  Returns false if absent.
  bool touch(std::uint64_t key) {
    const std::uint32_t* found = index_.find(key);
    if (found == nullptr) return false;
    const std::uint32_t n = *found;
    if (n != head_) {
      unlink(n);
      push_front(n);
    }
    return true;
  }

  /// Inserts `key` as MRU.  If the cache is full, evicts the LRU entry and
  /// returns it via `evicted` (returns true when an eviction happened).
  /// Inserting a present key just touches it.
  bool insert(std::uint64_t key, std::uint64_t* evicted = nullptr) {
    if (touch(key)) return false;
    if (capacity_ == 0) return false;  // degenerate: cache disabled
    bool evd = false;
    std::uint32_t n = kNil;
    if (index_.size() >= capacity_) {
      n = tail_;  // the victim's node takes the new key
      unlink(n);
      index_.erase(nodes_[n].key);
      if (evicted != nullptr) *evicted = nodes_[n].key;
      evd = true;
    } else if (free_ != kNil) {
      n = free_;
      free_ = nodes_[n].next;
    } else {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    nodes_[n].key = key;
    push_front(n);
    index_.find_or_insert(key, n);
    return evd;
  }

  /// Removes `key` if present; returns whether it was there.
  bool erase(std::uint64_t key) {
    const std::uint32_t* found = index_.find(key);
    if (found == nullptr) return false;
    const std::uint32_t n = *found;
    index_.erase(key);
    unlink(n);
    nodes_[n].next = free_;
    free_ = n;
    return true;
  }

  void clear() {
    nodes_.clear();
    index_.clear();
    head_ = tail_ = free_ = kNil;
  }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Node {
    std::uint64_t key = 0;
    std::uint32_t prev = kNil;  // toward the MRU end
    std::uint32_t next = kNil;  // toward the LRU end; free-list link
  };

  void unlink(std::uint32_t n) {
    const Node& x = nodes_[n];
    (x.prev == kNil ? head_ : nodes_[x.prev].next) = x.next;
    (x.next == kNil ? tail_ : nodes_[x.next].prev) = x.prev;
  }

  void push_front(std::uint32_t n) {
    nodes_[n].prev = kNil;
    nodes_[n].next = head_;
    (head_ == kNil ? tail_ : nodes_[head_].prev) = n;
    head_ = n;
  }

  std::size_t capacity_;
  std::vector<Node> nodes_;
  std::uint32_t head_ = kNil;  // MRU
  std::uint32_t tail_ = kNil;  // LRU
  std::uint32_t free_ = kNil;  // erased nodes, linked through `next`
  sim::FlatMap<std::uint32_t> index_;
};

}  // namespace now::coopcache
