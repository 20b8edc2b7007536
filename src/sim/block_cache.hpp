// A thread-local recycling cache for the engine's large allocations.
//
// A simulation run allocates a handful of large, long-lived blocks — the
// event-pool slab chunks (32 KiB each), the pending queue's heap and bucket
// arena (doubling up to hundreds of KiB) — and frees them all at Engine
// teardown.
// Handing multi-hundred-KiB blocks back to glibc puts them at the top of the
// heap, where the allocator trims them back to the kernel; the next Engine
// then soft-faults every page back in, which costs more than all the actual
// event processing (measured ~14 ns/event on a 10k-event run, ~2x the whole
// schedule path).  Experiments that build one Engine per trial — parameter
// sweeps, benchmarks, test suites — pay it over and over.
//
// BlockCache keeps freed blocks on per-size free lists instead, in
// power-of-two buckets, capped at kMaxCachedBytes per thread.  Blocks are
// 64-byte aligned (the slab and the 4-ary heap both want cache-line
// alignment).  Small requests pass straight through to operator new: glibc
// handles them without trimming, and caching them would just fragment the
// buckets.
//
// The cache is thread_local, so no locking; everything still cached at
// thread exit is released then, so leak checkers stay quiet.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

namespace now::sim {

class BlockCache {
 public:
  /// Requests below this go to operator new/delete uncached.
  static constexpr std::size_t kMinBlockBytes = 4096;
  /// Requests above this are aligned_alloc'd/freed directly, uncached.
  static constexpr std::size_t kMaxBlockBytes = std::size_t{64} << 20;
  /// Per-thread cap on memory retained in the buckets.
  static constexpr std::size_t kMaxCachedBytes = std::size_t{32} << 20;

  /// Returns a 64-byte-aligned block of at least `bytes` (for cacheable
  /// sizes, rounded up to the next power of two).  Throws std::bad_alloc.
  static void* allocate(std::size_t bytes) {
    if (bytes < kMinBlockBytes) return ::operator new(bytes);
    const std::size_t size = std::bit_ceil(bytes);
    if (size <= kMaxBlockBytes) {
      auto& bucket = impl().buckets[bucket_of(size)];
      if (!bucket.empty()) {
        void* p = bucket.back();
        bucket.pop_back();
        impl().cached_bytes -= size;
        return p;
      }
    }
    void* p = std::aligned_alloc(kAlign, size);
    if (p == nullptr) throw std::bad_alloc();
    return p;
  }

  /// Returns a block obtained from allocate(`bytes`).  Cacheable sizes are
  /// retained for reuse until the per-thread cap; the rest are freed.
  static void deallocate(void* p, std::size_t bytes) noexcept {
    if (p == nullptr) return;
    if (bytes < kMinBlockBytes) {
      ::operator delete(p);
      return;
    }
    const std::size_t size = std::bit_ceil(bytes);
    if (size <= kMaxBlockBytes) {
      Impl& c = impl();
      if (c.cached_bytes + size <= kMaxCachedBytes) {
        c.buckets[bucket_of(size)].push_back(p);
        c.cached_bytes += size;
        return;
      }
    }
    std::free(p);
  }

  /// Bytes currently retained by this thread's cache (test/introspection).
  static std::size_t cached_bytes() { return impl().cached_bytes; }

  /// Releases everything this thread's cache holds (test hook).
  static void trim() {
    Impl& c = impl();
    for (auto& bucket : c.buckets) {
      for (void* p : bucket) std::free(p);
      bucket.clear();
    }
    c.cached_bytes = 0;
  }

 private:
  static constexpr std::size_t kAlign = 64;
  static constexpr std::size_t kNumBuckets =
      std::bit_width(kMaxBlockBytes) - std::bit_width(kMinBlockBytes) + 1;

  static std::size_t bucket_of(std::size_t pow2_size) {
    return static_cast<std::size_t>(std::bit_width(pow2_size) -
                                    std::bit_width(kMinBlockBytes));
  }

  struct Impl {
    std::vector<void*> buckets[kNumBuckets];
    std::size_t cached_bytes = 0;
    ~Impl() {
      for (auto& bucket : buckets) {
        for (void* p : bucket) std::free(p);
      }
    }
  };

  static Impl& impl() {
    thread_local Impl cache;
    return cache;
  }
};

}  // namespace now::sim
