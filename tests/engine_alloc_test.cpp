// Proves the engine's hot path is allocation-free: once an engine is warm
// (pool chunks and queue buffers grown), scheduling, cancelling, rescheduling,
// and dispatching events whose captures fit InlinedCallback's small buffer
// must perform zero heap allocations.  Likewise for the LRU block cache: it
// allocates nothing before its first insert, and nothing once full.
//
// Every global operator new in this binary is replaced with a counting
// wrapper, so any std::function-style boxing on the hot path fails the test.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "coopcache/lru.hpp"
#include "sim/callback.hpp"
#include "sim/engine.hpp"

namespace {

std::uint64_t g_new_calls = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_new_calls;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_new_calls;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace now::sim {
namespace {

constexpr int kEvents = 4'096;

// Grows the pool and queue buffers past what the measured phase needs.
void warm(Engine& eng) {
  std::vector<EventId> ids;
  ids.reserve(2 * kEvents);
  for (int i = 0; i < 2 * kEvents; ++i) {
    ids.push_back(eng.schedule_at(i, [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) eng.cancel(ids[i]);
  eng.run();
}

TEST(EngineAlloc, WarmHotPathIsAllocationFree) {
  Engine eng;
  warm(eng);

  struct Payload {  // 40-byte capture: inline in the 48-byte SBO
    std::array<std::uint64_t, 4> data;
    std::uint64_t* sink;
  };
  std::uint64_t sum = 0;
  Payload payload{{1, 2, 3, 4}, &sum};

  std::vector<EventId> ids;
  ids.reserve(kEvents);  // the test's own bookkeeping allocates; snapshot after
  const std::uint64_t baseline = g_new_calls;
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(eng.schedule_at(eng.now() + i, [payload] {
      *payload.sink += payload.data[0] + payload.data[3];
    }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 4) eng.cancel(ids[i]);
  for (std::size_t i = 1; i < ids.size(); i += 4) {
    eng.reschedule_in(ids[i], 2 * kEvents);
  }
  eng.run();
  EXPECT_EQ(g_new_calls, baseline) << "hot path allocated on the heap";
  EXPECT_EQ(sum, static_cast<std::uint64_t>(kEvents - kEvents / 4) * 5);
}

TEST(EngineAlloc, OversizedCapturesFallBackToHeap) {
  Engine eng;
  warm(eng);
  std::array<char, 64> big{};
  big[63] = 1;
  int fired = 0;
  const std::uint64_t baseline = g_new_calls;
  eng.schedule_in(1, [big, &fired] { fired += big[63]; });
  EXPECT_GT(g_new_calls, baseline);  // proves the counter actually counts
  eng.run();
  EXPECT_EQ(fired, 1);
}

TEST(EngineAlloc, InlineCallbackReportsSboFit) {
  struct Small {
    void* a;
    void* b;
    void operator()() const {}
  };
  struct Big {
    std::array<char, InlinedCallback::kInlineSize + 1> bytes;
    void operator()() const {}
  };
  EXPECT_TRUE(InlinedCallback::fits_inline<Small>());
  EXPECT_FALSE(InlinedCallback::fits_inline<Big>());
}

// A building constructs a thousand disabled client caches and a server
// cache per run; none of them may allocate until a block goes in.
TEST(LruAlloc, NothingAllocatedBeforeFirstInsert) {
  const std::uint64_t baseline = g_new_calls;
  coopcache::LruCache disabled(0);
  coopcache::LruCache empty(2'048);
  disabled.insert(1);
  EXPECT_FALSE(disabled.contains(1));
  EXPECT_FALSE(empty.touch(1));
  EXPECT_FALSE(empty.erase(1));
  EXPECT_EQ(g_new_calls, baseline);
}

TEST(LruAlloc, FullCacheChurnIsAllocationFree) {
  coopcache::LruCache cache(512);
  for (std::uint64_t k = 0; k < 2'048; ++k) cache.insert(k);
  const std::uint64_t baseline = g_new_calls;
  std::uint64_t victim = 0;
  for (std::uint64_t k = 0; k < 20'000; ++k) {
    const std::uint64_t key = (k * 7'919) % 4'096;
    if (k % 3 == 0) cache.erase(key);
    else if (!cache.touch(key)) cache.insert(key, &victim);
  }
  EXPECT_EQ(g_new_calls, baseline) << "full LRU allocated on the heap";
  EXPECT_LE(cache.size(), 512u);
}

}  // namespace
}  // namespace now::sim
