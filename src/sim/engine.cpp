#include "sim/engine.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

namespace now::sim {

Engine::~Engine() {
  // Live events still hold closures that need destroying; once drained (the
  // common case) every slot's callback is already gone and the slab can be
  // freed without touching its 64 bytes/slot.
  if (live_count_ != 0) {
    for (std::uint32_t idx = 0; idx < num_slots_; ++idx) slot(idx).fn.reset();
  }
  for (Slot* chunk : chunks_) {
    BlockCache::deallocate(chunk, kChunkSize * sizeof(Slot));
  }
  BlockCache::deallocate(heap_, heap_cap_ * sizeof(HeapEntry));
  BlockCache::deallocate(blocks_, num_blocks_ * sizeof(Block));
}

void Engine::add_chunk() {
  assert(num_slots_ + kChunkSize <= kMaxSlots &&
         "event pool exhausted (2^24 concurrently pending events)");
  auto* chunk =
      static_cast<Slot*>(BlockCache::allocate(kChunkSize * sizeof(Slot)));
  chunks_.push_back(chunk);
  // One init pass: empty callback, dead tag, and a free-list chain that
  // hands slots out in ascending index order, ending at the old list head.
  const std::uint32_t base = num_slots_;
  for (std::uint32_t i = 0; i < kChunkSize; ++i) {
    ::new (static_cast<void*>(&chunk[i])) Slot;
    chunk[i].next_free = base + i + 1;
  }
  chunk[kChunkSize - 1].next_free = free_head_;
  free_head_ = base;
  num_slots_ += kChunkSize;
}

void Engine::dispatch_top() {
  const HeapEntry top = heap_[0];
  heap_pop();
  const std::uint32_t idx = key_slot(top.key);
  Slot& s = slot(idx);
  now_ = top.time;
  // Invalidate the id *before* invoking so a self-cancel from inside the
  // callback is a stale no-op, but keep the slot off the free list until the
  // callback returns — events it schedules must not reuse the slot that is
  // currently executing.  Chunk addresses are stable, so the closure runs in
  // place even if scheduling grows the slab.
  s.seq = kDeadSeq;
  --live_count_;
  ++dispatched_;
  s.fn.invoke_and_reset();
  free_slot(s, idx);
}

bool Engine::step() {
  if (!settle()) return false;
  dispatch_top();
  return true;
}

std::uint64_t Engine::run() {
  stopped_ = false;
  std::uint64_t n = 0;
  while (!stopped_ && settle()) {
    dispatch_top();
    ++n;
  }
  return n;
}

std::uint64_t Engine::run_until(SimTime deadline) {
  stopped_ = false;
  std::uint64_t n = 0;
  while (!stopped_ && settle(deadline)) {
    dispatch_top();
    ++n;
  }
  // A completed run leaves the clock at the deadline; a stop()ped run leaves
  // it at the last dispatched event so callers observe where they halted.
  if (!stopped_ && now_ < deadline) now_ = deadline;
  return n;
}

std::uint64_t Engine::run_while_before(SimTime bound) {
  stopped_ = false;
  std::uint64_t n = 0;
  while (!stopped_ && settle(bound - 1)) {
    dispatch_top();
    ++n;
  }
  return n;
}

bool Engine::peek_next(SimTime* at) {
  if (!settle()) return false;
  *at = heap_[0].time;
  return true;
}

// Empties the lowest non-empty bucket.  last_ moves up to the bucket's
// minimum and bound_ to the end of the new window: entries in the window go
// to the heap, and every other live entry differs from the new last_ only
// below the bucket's bit, so it lands in a lower bucket.  Higher buckets keep
// their meaning, because the new last_ shares all bits above that one with
// the old, and the window stops short of the next one's minimum.  Stale
// entries are dropped here without ever entering the heap.  The minimum may
// belong to a stale entry, leaving the heap empty; settle() then simply
// refills again.
void Engine::refill() {
  // A refill can pour a whole bucket of same-instant events into the heap.
  // Growing the heap to the arena's capacity first means that never
  // allocates once the arena has reached the engine's high-water mark.
  heap_reserve(std::size_t{num_blocks_} * kBlockEntries);
  const std::uint64_t fed = dispatched_ - refill_mark_;
  refill_mark_ = dispatched_;
  if (fed <= kGrowFed) {
    if (window_bits_ < kMaxWindowBits) ++window_bits_;
  } else if (fed > kShrinkFed) {
    if (window_bits_ > kMinWindowBits) --window_bits_;
  }
  const int b = std::countr_zero(bucket_mask_);
  last_ = buckets_[b].min;
  bound_ = last_ | ((SimTime{1} << window_bits_) - 1);
  const std::uint64_t higher = bucket_mask_ & (bucket_mask_ - 1);
  if (higher != 0) {
    bound_ = std::min(bound_, buckets_[std::countr_zero(higher)].min - 1);
  }
  requeue_bucket(b);
}

// Detaches bucket b and enqueues its live entries afresh against the
// current last_ and bound_.  Blocks are indexed anew for every entry and
// freed only once read: the pushes may grow (and so move) the arena, and may
// land back in bucket b itself when last_ has not moved (compaction).
void Engine::requeue_bucket(int b) {
  std::uint32_t blk = buckets_[b].head;
  std::uint32_t n = buckets_[b].fill;
  buckets_[b] = Bucket{};
  bucket_mask_ &= ~(std::uint64_t{1} << b);
  while (blk != kNoBlock) {
    bucketed_ -= n;
    for (std::uint32_t i = 0; i < n; ++i) {
      const HeapEntry e = block(blk).e[i];
      if (entry_stale(e)) {
        --stale_count_;
      } else {
        enqueue_entry(e);
      }
    }
    const std::uint32_t next = block(blk).next;
    free_block(blk);
    blk = next;
    n = kBlockEntries;
  }
}

void Engine::grow_blocks() {
  assert(free_block_ == kNoBlock);
  const std::uint32_t cap = num_blocks_ == 0 ? 32 : 2 * num_blocks_;
  auto* grown = static_cast<Block*>(BlockCache::allocate(cap * sizeof(Block)));
  if (num_blocks_ != 0) {
    std::memcpy(grown, blocks_, num_blocks_ * sizeof(Block));
  }
  BlockCache::deallocate(blocks_, num_blocks_ * sizeof(Block));
  blocks_ = grown;
  // Chain the new blocks in ascending order onto the (empty) free list.
  for (std::uint32_t i = num_blocks_; i < cap; ++i) blocks_[i].next = i + 1;
  blocks_[cap - 1].next = kNoBlock;
  free_block_ = num_blocks_;
  num_blocks_ = cap;
}

void Engine::compact() {
  // Shed stale entries from every bucket (each live one lands back in its
  // own bucket, last_ and bound_ being unchanged) and from the heap, which
  // is then rebuilt with Floyd's heapify.
  for (std::uint64_t m = bucket_mask_; m != 0; m &= m - 1) {
    requeue_bucket(std::countr_zero(m));
  }
  std::size_t live = 0;
  for (std::size_t j = 0; j < heap_size_; ++j) {
    const HeapEntry e = heap_[phys(j)];
    if (!entry_stale(e)) heap_[phys(live++)] = e;
  }
  heap_size_ = live;
  stale_count_ = 0;
  if (live < 2) return;

  // Floyd heapify: sift every internal node down, last parent first.
  const std::size_t end = phys(live - 1) + 1;
  for (std::size_t i = parent_of(end - 1);; --i) {
    if (i == 0 || i >= 4) {  // physical cells 1..3 are padding
      HeapEntry v = heap_[i];
      std::size_t hole = i;
      for (;;) {
        const std::size_t first = first_child(hole);
        if (first >= end) break;
        std::size_t best = first;
        const std::size_t stop = first + 4 < end ? first + 4 : end;
        for (std::size_t c = first + 1; c < stop; ++c) {
          if (entry_less(heap_[c], heap_[best])) best = c;
        }
        if (!entry_less(heap_[best], v)) break;
        heap_[hole] = heap_[best];
        hole = best;
      }
      heap_[hole] = v;
    }
    if (i == 0) break;
  }
}

}  // namespace now::sim
