// Per-thread recycling of small objects made and freed at message rate.
//
// Every AM data frame, ack and send-window entry lives for one round trip
// of the wire, and a served file request makes a dozen of them.  Handing
// each back to malloc costs more than the simulation work it carries.
// `Pooled<T>` gives `T` a class-level operator new/delete that reuses
// freed objects from a thread-local free list: a warm request path
// allocates nothing.
//
// Usage: `struct Frame : Base, sim::Pooled<Frame> { ... };` and create
// objects with plain `new` (or make_unique).  Deleting through a base
// pointer reaches the pool as long as the base destructor is virtual.
//
// The list is per thread, so no locking.  An object freed on another
// thread than the one that made it (a cross-lane message) joins that
// thread's list.  Each list keeps at most `kMaxCached` objects and frees
// the rest, so the pool never holds more than a bounded slice of the peak;
// whatever it holds at thread exit is freed then, like sim::BlockCache.
//
// AddressSanitizer builds bypass the pool: every object goes straight to
// operator new/delete, so a frame used after it was freed is still caught.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>

namespace now::sim {

/// False in AddressSanitizer builds, where Pooled<T> passes every object
/// straight to operator new/delete.
#ifdef __SANITIZE_ADDRESS__
inline constexpr bool kPoolObjects = false;
#else
inline constexpr bool kPoolObjects = true;
#endif

template <typename T, std::size_t kMaxCached = 512>
class Pooled {
 public:
  static void* operator new(std::size_t bytes) {
    static_assert(sizeof(T) >= sizeof(Node));
    assert(bytes == sizeof(T) && "Pooled<T> is for T itself, not subclasses");
    if constexpr (kPoolObjects) {
      FreeList& l = list();
      if (l.head != nullptr) {
        Node* n = l.head;
        l.head = n->next;
        --l.size;
        return n;
      }
    }
    return ::operator new(bytes);
  }

  static void operator delete(void* p) noexcept {
    if (p == nullptr) return;
    if constexpr (kPoolObjects) {
      FreeList& l = list();
      if (l.size < kMaxCached) {
        l.head = ::new (p) Node{l.head};
        ++l.size;
        return;
      }
    }
    ::operator delete(p);
  }

  /// Objects this thread holds for reuse (always 0 when the pool is
  /// bypassed), at most max_cached().
  static std::size_t cached() { return list().size; }
  static constexpr std::size_t max_cached() { return kMaxCached; }

 private:
  struct Node {
    Node* next;
  };

  struct FreeList {
    Node* head = nullptr;
    std::size_t size = 0;
    ~FreeList() {
      while (head != nullptr) {
        Node* n = head;
        head = n->next;
        ::operator delete(n);
      }
      // An object freed after this list is gone (a static holding frames
      // past thread exit) goes straight back to operator delete.
      size = kMaxCached;
    }
  };

  static FreeList& list() {
    thread_local FreeList l;
    return l;
  }
};

}  // namespace now::sim
