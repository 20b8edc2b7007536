// A standard allocator that recycles small blocks through per-thread free
// lists, for node-based containers on a hot path.
//
// xFS's directory keeps a reader set per block and each client a dirty
// set; both are `std::unordered_set`s because the order they iterate in
// picks the peer a read is sent to, the order of invalidations and the
// order of ownership reports, and the simulated results depend on it.
// Every insert allocates a node and every fresh set a bucket array, and
// both are freed again within a few requests.  With `PoolAllocator` the
// containers keep their exact algorithm (and so their iteration order),
// while their nodes and small bucket arrays come from a free list per
// 16-byte size class: a warm request path allocates nothing.
//
// Blocks up to kMaxPooledBytes are pooled, at most kMaxCached per size
// class and thread; larger ones (the bucket array of a set with more than
// about a hundred entries) go straight to operator new.  Whatever a list
// holds at thread exit is freed then.  As with sim::Pooled,
// AddressSanitizer builds bypass the pool (sim::kPoolObjects).
#pragma once

#include <array>
#include <cstddef>
#include <new>

#include "sim/pooled.hpp"

namespace now::sim {

class SmallBlocks {
 public:
  static constexpr std::size_t kGrain = 16;
  static constexpr std::size_t kMaxPooledBytes = 1024;
  static constexpr std::size_t kMaxCached = 4096;

  static void* allocate(std::size_t bytes) {
    if (kPoolObjects && bytes <= kMaxPooledBytes) {
      FreeList& l = lists().of[class_of(bytes)];
      if (l.head != nullptr) {
        Node* n = l.head;
        l.head = n->next;
        --l.size;
        return n;
      }
      return ::operator new(round_up(bytes));
    }
    return ::operator new(bytes);
  }

  static void deallocate(void* p, std::size_t bytes) noexcept {
    if (kPoolObjects && bytes <= kMaxPooledBytes) {
      FreeList& l = lists().of[class_of(bytes)];
      if (l.size < kMaxCached) {
        l.head = ::new (p) Node{l.head};
        ++l.size;
        return;
      }
    }
    ::operator delete(p);
  }

 private:
  struct Node {
    Node* next;
  };
  struct FreeList {
    Node* head = nullptr;
    std::size_t size = 0;
  };
  struct Lists {
    std::array<FreeList, kMaxPooledBytes / kGrain> of;
    ~Lists() {
      for (FreeList& l : of) {
        while (l.head != nullptr) {
          Node* n = l.head;
          l.head = n->next;
          ::operator delete(n);
        }
        // A block freed after the lists are gone goes to operator delete.
        l.size = kMaxCached;
      }
    }
  };

  static std::size_t class_of(std::size_t bytes) {
    return bytes == 0 ? 0 : (bytes - 1) / kGrain;
  }
  static std::size_t round_up(std::size_t bytes) {
    return (class_of(bytes) + 1) * kGrain;
  }
  static Lists& lists() {
    thread_local Lists l;
    return l;
  }
};

template <typename T>
class PoolAllocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

 public:
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(SmallBlocks::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    SmallBlocks::deallocate(p, n * sizeof(T));
  }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
};

}  // namespace now::sim
