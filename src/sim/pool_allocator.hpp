// Per-thread recycling of small blocks made and freed at message rate.
//
// `SmallBlocks` keeps one free list per 16-byte size class and thread.
// Two kinds of objects draw from it:
//
//   * `Pooled<T>` gives `T` a class-level operator new/delete over its size
//     class.  Every AM data frame, ack and send-window entry lives for one
//     round trip of the wire, and a served file request makes a dozen of
//     them; handing each back to malloc costs more than the simulation work
//     it carries.  Usage: `struct Frame : Base, sim::Pooled<Frame> { ... };`
//     and create objects with plain `new` (or make_unique).  Deleting
//     through a base pointer reaches the pool as long as the base
//     destructor is virtual.
//   * `PoolAllocator<T>` is a standard allocator over the same lists, for
//     node-based containers.  xFS's directory keeps a reader set per block
//     and each client a dirty set; both are `std::unordered_set`s because
//     the order they iterate in picks the peer a read is sent to, the order
//     of invalidations and the order of ownership reports, and the
//     simulated results depend on it.  With `PoolAllocator` the containers
//     keep their exact algorithm (and so their iteration order), while
//     their nodes and small bucket arrays come from the free lists.
//
// Either way a warm request path allocates nothing.  Blocks up to
// kMaxPooledBytes are pooled, at most kMaxCached per size class and
// thread; larger ones (the bucket array of a set with more than about a
// hundred entries) go straight to operator new.  The lists are per thread,
// so no locking: a block freed on another thread than the one that made it
// (a cross-lane message) joins that thread's list.  Whatever a list holds
// at thread exit is freed then.
//
// AddressSanitizer builds bypass the pool: every block goes straight to
// operator new/delete, so a frame used after it was freed is still caught.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <new>

namespace now::sim {

/// False in AddressSanitizer builds, where SmallBlocks passes every block
/// straight to operator new/delete.
#ifdef __SANITIZE_ADDRESS__
inline constexpr bool kPoolObjects = false;
#else
inline constexpr bool kPoolObjects = true;
#endif

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

  /// Blocks of `bytes`' size class this thread holds for reuse (always 0
  /// when the pool is bypassed), at most kMaxCached.
  static std::size_t cached(std::size_t bytes) {
    return bytes <= kMaxPooledBytes ? lists().of[class_of(bytes)].size : 0;
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

template <typename T>
class Pooled {
 public:
  static void* operator new(std::size_t bytes) {
    static_assert(sizeof(T) <= SmallBlocks::kMaxPooledBytes);
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    assert(bytes == sizeof(T) && "Pooled<T> is for T itself, not subclasses");
    return SmallBlocks::allocate(bytes);
  }

  static void operator delete(void* p) noexcept {
    if (p != nullptr) SmallBlocks::deallocate(p, sizeof(T));
  }
};

}  // namespace now::sim
