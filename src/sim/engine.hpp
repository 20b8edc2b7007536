// The discrete-event simulation engine at the bottom of every experiment.
//
// The engine owns a priority queue of (time, priority, sequence, closure)
// events.  Ties in time break on priority, then on insertion sequence, so a
// run is fully deterministic.  All simulated components — networks, disks,
// CPU schedulers, daemons — are driven by callbacks scheduled here.
//
// Hot-path design (see DESIGN.md, "Engine internals"):
//   * Closures live in a slab of fixed 64-byte pool slots recycled through a
//     free list; captures up to InlinedCallback::kInlineSize bytes never touch
//     the heap.  The slab grows in 512-slot chunks whose addresses are stable,
//     so growth never relocates a live closure and dispatch can invoke the
//     closure in place — a scheduled callback is never moved at all.
//   * An EventId packs `slot index : 32 | sequence : 32`.  cancel() clears the
//     slot's sequence tag — O(1), no hash map — and the stale queue entry is
//     discarded lazily by the refill that reaches it or at the heap top (or
//     in a bulk compaction once stale entries outnumber live ones).
//   * The pending queue is a monotone radix heap on event time with a
//     self-sizing window of the near future in front of it.  `last_` is the
//     time of the last refill and `bound_ >= last_` the end of the window:
//     every pending entry at or before `bound_` sits in a small 4-ary
//     implicit heap, and every entry after it sits in one of 64 buckets —
//     bucket b holds the times whose highest bit differing from `last_` is
//     b.  Scheduling is a heap push inside the window and an append to a
//     bucket beyond it.  When the heap drains, a refill takes the lowest
//     non-empty bucket (one ctz on an occupancy mask), moves `last_` up to
//     that bucket's minimum, sets `bound_ = last_ | (2^w - 1)` capped at one
//     below the next non-empty bucket's minimum, drops the bucket's
//     cancelled and rescheduled entries, and redistributes the rest — into
//     the heap if they are at or before `bound_`, otherwise into lower
//     buckets.  Dispatch pops the heap, so the exact (time, priority, seq)
//     order is kept by construction:
//       - heap entries are at most `bound_`, bucket entries greater;
//       - every entry of a higher bucket is at least that bucket's min (a
//         lower bound), so capping `bound_` below the next bucket's min
//         keeps the split when the window would reach into it (while w
//         moves one bit per refill it never does — the refilled bucket's
//         bit is at least the old w — but the cap keeps the order
//         independent of the sizing rule);
//       - the buckets stay valid radix buckets because `bound_ >= last_`:
//         any entry routed to them differs from `last_`, and `last_` moves
//         only up to the minimum of the lowest bucket.
//     The window width w sizes itself from how many events the previous
//     refill fed (the dispatches between two refills).  A bare radix queue
//     (w = 0) refills on nearly every dispatch when events are spread
//     microseconds apart, as on sparse serving traffic; a wide window keeps
//     hundreds of dense events in the heap and pays log n per operation on
//     them.  w grows after a refill that fed too few dispatches and shrinks
//     after one that fed too many, between private limits chosen by
//     measurement (DESIGN.md §6).  Far-future timers wait in their bucket
//     untouched until time gets near them (or are shed there, never sifted,
//     if they are cancelled first), and an idle gap of hours costs one
//     refill.  Every pending event waits in this one queue, the retransmit
//     and call timers that are almost always cancelled included.
//
// Threading model: an Engine — and everything hanging off it (components,
// their RNGs, the run's metrics registry and tracer) — is *engine-confined*:
// one simulation, one thread, no locks.  Concurrent simulations are N
// engines on N threads sharing nothing; now::exp::run_sweep builds exactly
// that, giving each run thread-local observability/log state so results are
// invariant under the thread count (DESIGN.md §10).
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "sim/block_cache.hpp"
#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace now::sim {

/// Handle used to cancel or reschedule a pending event.  0 is never issued,
/// so callers can use it as a "no event" sentinel: cancel(0) returns false
/// and reschedule(0, t) returns 0.  An id whose event already fired, was
/// cancelled, or was superseded by reschedule() is dead the same way (until
/// the 32-bit sequence wraps; see DESIGN.md §6).
using EventId = std::uint64_t;

/// The event-driven simulator core.
///
/// Typical use:
///   Engine eng;
///   eng.schedule_in(10 * kMicrosecond, [&]{ ... });
///   eng.run();
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (>= now).  Events scheduled
  /// for the past are clamped to `now`.  Accepts any `void()` callable;
  /// captures up to InlinedCallback::kInlineSize bytes are stored in the
  /// event pool without any heap allocation.
  template <typename F>
  EventId schedule_at(SimTime at, F&& fn, int priority = 0) {
    if (at < now_) at = now_;
    const std::uint32_t idx = alloc_slot();
    Slot& s = slot(idx);
    const std::uint32_t seq = next_seq();
    s.seq = seq;
    s.fn.emplace(std::forward<F>(fn));
    enqueue_entry(HeapEntry{at, pack_key(priority, seq, idx)});
    ++live_count_;
    return make_id(idx, seq);
  }

  /// Schedules `fn` to run `delay` after the current time.
  template <typename F>
  EventId schedule_in(Duration delay, F&& fn, int priority = 0) {
    assert(delay >= 0);
    return schedule_at(now_ + delay, std::forward<F>(fn), priority);
  }

  /// Cancels a pending event.  Returns true if it was still pending, false
  /// for 0, a fired event, or a cancelled or rescheduled one.  O(1): clears
  /// the slot's sequence tag so the queued entry dies lazily.
  bool cancel(EventId id) {
    if (!live_id(id)) return false;
    const std::uint32_t idx = slot_index(id);
    Slot& s = slot(idx);
    s.seq = kDeadSeq;
    s.fn.reset();
    free_slot(s, idx);
    --live_count_;
    note_stale_entry();
    return true;
  }

  /// Moves a pending event to fire at `at` instead, reusing its pool slot and
  /// closure — the zero-allocation replacement for cancel() + schedule_*()
  /// churn on periodic timers (CPU slices, retransmit timers, tick loops).
  /// Returns the event's new id, or 0 if `id` is 0 or had already fired or
  /// been cancelled (the closure is gone; the caller must schedule afresh).
  EventId reschedule(EventId id, SimTime at, int priority = 0) {
    if (!live_id(id)) return 0;
    const std::uint32_t idx = slot_index(id);
    Slot& s = slot(idx);
    if (at < now_) at = now_;
    // Retag the slot under a fresh sequence number; the old queue entry goes
    // stale and the slot (with its closure) stays allocated under the new id.
    const std::uint32_t seq = next_seq();
    s.seq = seq;
    note_stale_entry();
    enqueue_entry(HeapEntry{at, pack_key(priority, seq, idx)});
    return make_id(idx, seq);
  }

  /// Convenience: `delay` from now.  Same contract as reschedule().
  EventId reschedule_in(EventId id, Duration delay, int priority = 0) {
    assert(delay >= 0);
    return reschedule(id, now_ + delay, priority);
  }

  /// Runs until the queue is empty or `stop()` is called.
  /// Returns the number of events dispatched.
  std::uint64_t run();

  /// Runs until simulated time exceeds `deadline` (events at exactly
  /// `deadline` still run) or the queue drains.  If the run completes, the
  /// clock is advanced to `deadline`; if stop() halted it, the clock stays at
  /// the last dispatched event.
  std::uint64_t run_until(SimTime deadline);

  /// Dispatches every event with time strictly before `bound`, leaving the
  /// clock at the last dispatched event (never clamped forward) — the
  /// epoch-execution primitive of sim::ParallelEngine: a partition lane runs
  /// [epoch_start, epoch_end) and must not consume events at or past the
  /// barrier.
  std::uint64_t run_while_before(SimTime bound);

  /// Timestamp of the earliest pending live event, without dispatching it.
  /// Returns false when no live event is pending.
  bool peek_next(SimTime* at);

  /// Advances the clock to `t` without dispatching (no-op if t <= now).
  /// Only legal when no pending event precedes `t`; the partitioned runner
  /// uses it to line lanes up on a barrier instant.
  void advance_to(SimTime t) {
    assert(!([this, t] {
      SimTime next;
      return peek_next(&next) && next < t;
    }()) && "advance_to would skip pending events");
    if (t > now_) now_ = t;
  }

  /// Dispatches at most one event.  Returns false if the queue was empty.
  bool step();

  /// Requests that run()/run_until() return after the current event.
  void stop() { stopped_ = true; }

  /// Number of live (not cancelled, not yet fired) pending events.
  std::size_t pending() const { return live_count_; }

  /// Total events dispatched over the engine's lifetime.
  std::uint64_t dispatched() const { return dispatched_; }

 private:
  // Reads the queue's window (last_, bound_, w) for the engine's tests.
  friend struct EngineTestPeer;

  // A pool slot: closure + the sequence tag of the event occupying it
  // (kDeadSeq when free or invalidated).  Exactly one 64-byte cache line, so
  // dispatch touches a single line per event.
  struct Slot {
    InlinedCallback fn;
    std::uint32_t seq = kDeadSeq;
    std::uint32_t next_free = kNoFreeSlot;
  };

  // Plain-data queue entry.  `key` packs (priority+128):8 | sequence:32 |
  // slot index:24, so one u64 compare resolves the priority-then-insertion
  // tie-break (index bits sit below the unique sequence and never decide).
  // 16-byte aligned so no entry in a heap or bucket block straddles a
  // cache line.
  struct alignas(16) HeapEntry {
    SimTime time;
    std::uint64_t key;
  };

  // The slab grows one chunk at a time; chunk addresses never change, so a
  // callback being invoked in place survives any scheduling it performs.
  static constexpr std::uint32_t kChunkShift = 9;  // 512 slots = 32 KiB
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;
  static constexpr std::uint32_t kMaxSlots = 1u << 24;  // index field width

  static constexpr std::uint32_t kNoFreeSlot = 0xFFFFFFFFu;
  static constexpr std::uint32_t kDeadSeq = 0;  // never issued to an event
  static constexpr int kPriorityBias = 128;

  static std::uint32_t slot_index(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static std::uint32_t seq_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  static EventId make_id(std::uint32_t idx, std::uint32_t seq) {
    return (static_cast<EventId>(idx) << 32) | seq;
  }
  static std::uint32_t key_slot(std::uint64_t key) {
    return static_cast<std::uint32_t>(key & 0xFFFFFFu);
  }
  static std::uint32_t key_seq(std::uint64_t key) {
    return static_cast<std::uint32_t>(key >> 24);
  }

  static std::uint64_t pack_key(int priority, std::uint32_t seq,
                                std::uint32_t idx) {
    assert(priority >= -kPriorityBias && priority < kPriorityBias &&
           "event priority outside the packed 8-bit range [-128, 127]");
    return (static_cast<std::uint64_t>(
                static_cast<std::uint8_t>(priority + kPriorityBias))
            << 56) |
           (static_cast<std::uint64_t>(seq) << 24) | idx;
  }

  /// Sequence numbers order same-time same-priority events and tag slots
  /// against stale ids.  32 bits wrap after 4.3G schedules; a tie-break or a
  /// stale-id collision then needs two co-pending twins a full wrap apart —
  /// see DESIGN.md for why that is acceptable.
  std::uint32_t next_seq() {
    if (++seq_counter_ == kDeadSeq) ++seq_counter_;
    return seq_counter_;
  }

  Slot& slot(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & kChunkMask];
  }
  const Slot& slot(std::uint32_t idx) const {
    return chunks_[idx >> kChunkShift][idx & kChunkMask];
  }

  /// False for 0 and for any id whose event fired, was cancelled or was
  /// rescheduled since the id was issued.
  bool live_id(EventId id) const {
    const std::uint32_t idx = slot_index(id);
    return seq_of(id) != kDeadSeq && idx < num_slots_ &&
           slot(idx).seq == seq_of(id);
  }

  static bool entry_less(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }

  /// Routes a new entry to its tier: inside the window it is ordered
  /// against the heap now; beyond it, it waits in its bucket.
  void enqueue_entry(HeapEntry e) {
    if (e.time <= bound_) {
      heap_push(e);
    } else {
      bucket_push(e);
    }
  }

  void add_chunk();

  std::uint32_t alloc_slot() {
    if (free_head_ == kNoFreeSlot) add_chunk();
    const std::uint32_t idx = free_head_;
    free_head_ = slot(idx).next_free;
    return idx;
  }

  void free_slot(Slot& s, std::uint32_t idx) {
    s.next_free = free_head_;
    free_head_ = idx;
  }

  // ---- 4-ary implicit min-heap, cache-line aligned ----------------------
  //
  // Physical layout: the root lives at index 0, cells 1..3 are padding, and
  // the logical entry k >= 1 lives at physical index k + 3.  Children of the
  // root are cells 4..7; children of cell i >= 4 are cells 4i-8 .. 4i-5.
  // Every 4-child group is therefore {4m .. 4m+3} — exactly one 64-byte
  // cache line of 16-byte entries (the storage is 64-byte aligned), so each
  // sift level costs a single line fill.  Entries are PODs, grown with
  // realloc-style doubling.

  static constexpr std::size_t kHeapAlign = 64;

  static std::size_t phys(std::size_t logical) {
    return logical == 0 ? 0 : logical + 3;
  }
  static std::size_t first_child(std::size_t i) {
    return i == 0 ? 4 : 4 * i - 8;
  }
  static std::size_t parent_of(std::size_t c) {
    return c < 8 ? 0 : (c + 8) / 4;
  }

  void heap_reserve(std::size_t entries) {
    const std::size_t need = phys(entries) + 1;
    if (need <= heap_cap_) return;
    std::size_t cap = heap_cap_ == 0 ? 256 : heap_cap_;
    while (cap < need) cap *= 2;
    auto* grown =
        static_cast<HeapEntry*>(BlockCache::allocate(cap * sizeof(HeapEntry)));
    if (heap_size_ != 0) {
      std::memcpy(grown, heap_, (phys(heap_size_ - 1) + 1) * sizeof(HeapEntry));
    }
    BlockCache::deallocate(heap_, heap_cap_ * sizeof(HeapEntry));
    heap_ = grown;
    heap_cap_ = cap;
  }

  void heap_push(HeapEntry e) {
    heap_reserve(heap_size_ + 1);
    std::size_t i = phys(heap_size_++);
    while (i != 0) {
      const std::size_t parent = parent_of(i);
      if (!entry_less(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  /// Removes the minimum (heap_[0]).  Floyd's bottom-up deletion: walk the
  /// hole down along minimal children to a leaf, then sift the displaced
  /// last entry up from there.  On a drain the last entry is large, so the
  /// upward pass almost always stops immediately — one compare per level
  /// instead of four.
  void heap_pop() {
    assert(heap_size_ > 0);
    const HeapEntry last = heap_[phys(heap_size_ - 1)];
    if (--heap_size_ == 0) return;
    const std::size_t end = phys(heap_size_ - 1) + 1;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = first_child(i);
      if (first >= end) break;
      std::size_t best = first;
      const std::size_t stop = first + 4 < end ? first + 4 : end;
      for (std::size_t c = first + 1; c < stop; ++c) {
        if (entry_less(heap_[c], heap_[best])) best = c;
      }
      heap_[i] = heap_[best];
      i = best;
    }
    while (i != 0) {
      const std::size_t parent = parent_of(i);
      if (!entry_less(last, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = last;
  }

  // ---- radix buckets ------------------------------------------------------
  //
  // Bucket b holds entries whose time differs from last_ first in bit b, so
  // every entry in bucket b is later than every entry in a lower bucket, and
  // the lowest non-empty bucket holds the next events.  Each bucket is a
  // singly linked list of fixed 512-byte blocks; only the head block takes
  // appends, and every block behind it is full.  All blocks come from one
  // arena — a BlockCache buffer grown by doubling, with freed blocks on an
  // intrusive free list — so a warm engine moves entries between buckets
  // without allocating.

  static constexpr int kBuckets = 64;
  static constexpr std::uint32_t kNoBlock = 0xFFFFFFFFu;
  static constexpr std::size_t kBlockBytes = 512;
  static constexpr std::uint32_t kBlockEntries =
      (kBlockBytes - sizeof(HeapEntry)) / sizeof(HeapEntry);

  struct alignas(64) Block {
    std::uint32_t next;  // next block of the bucket, or of the free list
    HeapEntry e[kBlockEntries];
  };
  static_assert(sizeof(Block) == kBlockBytes);

  struct Bucket {
    SimTime min = std::numeric_limits<SimTime>::max();  // lower bound
    std::uint32_t head = kNoBlock;
    std::uint32_t fill = kBlockEntries;  // in the head block; "full" if none
  };

  static int bucket_of(SimTime t, SimTime last) {
    return std::bit_width(static_cast<std::uint64_t>(t ^ last)) - 1;
  }

  Block& block(std::uint32_t b) {
    assert(b < num_blocks_);
    return blocks_[b];
  }

  void bucket_push(HeapEntry e) {
    const int b = bucket_of(e.time, last_);
    Bucket& bk = buckets_[b];
    if (bk.fill == kBlockEntries) {  // head block full, or no block at all
      const std::uint32_t head = alloc_block();
      block(head).next = bk.head;
      bk.head = head;
      bk.fill = 0;
      bucket_mask_ |= std::uint64_t{1} << b;
    }
    block(bk.head).e[bk.fill++] = e;
    if (e.time < bk.min) bk.min = e.time;
    ++bucketed_;
  }

  std::uint32_t alloc_block() {
    if (free_block_ == kNoBlock) grow_blocks();
    const std::uint32_t b = free_block_;
    free_block_ = block(b).next;
    return b;
  }

  void free_block(std::uint32_t b) {
    block(b).next = free_block_;
    free_block_ = b;
  }

  /// True if the entry refers to an event that was cancelled, rescheduled,
  /// or dispatched after the entry was queued.
  bool entry_stale(const HeapEntry& e) const {
    return slot(key_slot(e.key)).seq != key_seq(e.key);
  }

  /// Drops cancelled/rescheduled entries off the top of the heap.  After
  /// this, the heap is either empty or has a live event at heap_[0].
  void skim_stale() {
    while (heap_size_ != 0 && entry_stale(heap_[0])) {
      heap_pop();
      --stale_count_;
    }
  }

  /// Leaves the next live event at heap_[0], refilling from the buckets as
  /// the heap drains, and returns true if it is due at or before `limit`.
  /// A bucket whose least time is past `limit` is not refilled: that would
  /// move last_ ahead of the clock, and everything scheduled before it
  /// would then have to go through the heap.
  bool settle(SimTime limit = std::numeric_limits<SimTime>::max()) {
    skim_stale();
    while (heap_size_ == 0) {  // a refill pushes live entries only
      if (bucket_mask_ == 0 ||
          buckets_[std::countr_zero(bucket_mask_)].min > limit) {
        return false;
      }
      refill();
    }
    return heap_[0].time <= limit;
  }

  std::size_t queued_entries() const { return heap_size_ + bucketed_; }

  // A queue this small is never compacted: its tombstones are dropped by the
  // refills that reach them.  A serving run keeps a few dozen live events
  // and cancels almost every retransmit and call timer; compacting from 64
  // entries up ran 8.7k compactions per perfbench serve_xfs repetition and
  // cost ~2.7 % of its speed.  A higher floor buys no more speed there and
  // costs each engine its arena's growth (4096: +8 % RSS on rpc_lanes).
  static constexpr std::size_t kCompactFloor = 1024;

  // Limits and feedback thresholds of the window width w, in bits of
  // nanoseconds.  A refill that fed at most kGrowFed dispatches widens the
  // window by one bit, one that fed more than kShrinkFed narrows it by one.
  // Chosen on replayed engine calls of the serving and dense benches: no
  // other thresholds or floor tried was faster on all of them (DESIGN.md §6).
  static constexpr int kMinWindowBits = 0;
  static constexpr int kMaxWindowBits = 24;  // ~16.8 ms
  static constexpr std::uint64_t kGrowFed = 2;
  static constexpr std::uint64_t kShrinkFed = 16;

  void note_stale_entry() {
    // When stale entries outnumber live ones, one O(n) compaction is cheaper
    // than carrying each tombstone to its refill.
    if (++stale_count_ > queued_entries() / 2 &&
        queued_entries() >= kCompactFloor) {
      compact();
    }
  }

  void dispatch_top();
  void refill();
  void requeue_bucket(int b);
  void grow_blocks();
  void compact();

  SimTime now_ = 0;
  bool stopped_ = false;
  std::uint32_t seq_counter_ = kDeadSeq;
  std::uint64_t dispatched_ = 0;
  std::size_t live_count_ = 0;
  std::size_t stale_count_ = 0;
  std::uint32_t free_head_ = kNoFreeSlot;
  std::uint32_t num_slots_ = 0;
  HeapEntry* heap_ = nullptr;
  std::size_t heap_size_ = 0;
  std::size_t heap_cap_ = 0;
  // Radix tier: every heap entry is at or before bound_, every bucketed
  // entry after it, keyed against last_ <= bound_.  A bucket's min is the
  // least time appended since it was last emptied, so a lower bound on its
  // entries.  window_bits_ is w; refill_mark_ is dispatched_ at the last
  // refill.
  SimTime last_ = 0;
  SimTime bound_ = 0;
  int window_bits_ = kMinWindowBits;
  std::uint64_t refill_mark_ = 0;
  std::uint64_t bucket_mask_ = 0;
  std::size_t bucketed_ = 0;
  std::array<Bucket, kBuckets> buckets_;
  Block* blocks_ = nullptr;
  std::uint32_t num_blocks_ = 0;
  std::uint32_t free_block_ = kNoBlock;
  // Raw 64-byte-aligned chunk storage, managed manually so an engine whose
  // events have all fired (live_count_ == 0, every slot's closure already
  // destroyed) can be torn down without scanning the slab.
  std::vector<Slot*> chunks_;
};

}  // namespace now::sim
