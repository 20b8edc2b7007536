// Virtual memory: the subsystem Network RAM revitalises (Figure 2).
//
// An AddressSpace owns a fixed number of physical frames and an LRU
// replacement policy.  Where evicted dirty pages go — the local swap disk or
// a remote workstation's idle DRAM — is decided by the Pager plugged in,
// which is exactly the paper's point: network RAM is implemented "most
// easily by replacing the swap device driver".
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "os/cpu.hpp"
#include "sim/engine.hpp"

namespace now::os {

/// Backing store for an address space: local swap partition or network RAM.
class Pager {
 public:
  virtual ~Pager() = default;
  /// Fetches `page` from backing store; `done` fires when the data is in
  /// memory.
  virtual void page_in(std::uint64_t page, std::function<void()> done) = 0;
  /// Writes a dirty evicted `page` to backing store.
  virtual void page_out(std::uint64_t page, std::function<void()> done) = 0;
};

struct VmStats {
  std::uint64_t references = 0;
  std::uint64_t hits = 0;
  std::uint64_t faults = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
};

/// One process's pageable address space.
class AddressSpace {
 public:
  /// `frames` physical page frames of `page_bytes` each, backed by `pager`.
  AddressSpace(sim::Engine& engine, std::uint32_t frames,
               std::uint32_t page_bytes, Pager& pager);
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  /// True if `page` is in memory (no fault needed).
  bool resident(std::uint64_t page) const;

  /// Records a reference to a *resident* page: LRU update + dirty marking.
  /// Costs no simulated time (cache effects are folded into compute time).
  void reference(std::uint64_t page, bool write);

  /// Services a fault on a non-resident page: evicts an LRU victim (writing
  /// it back first if dirty), fetches `page`, then fires `done`.  Multiple
  /// concurrent faults on the same page coalesce onto one fetch.
  void fault(std::uint64_t page, bool write, std::function<void()> done);

  /// Convenience: reference if resident, otherwise fault.  `done` runs
  /// synchronously on a hit.
  void access(std::uint64_t page, bool write, std::function<void()> done);

  /// Process-context access: on a hit `then` runs synchronously; on a miss
  /// the calling process blocks (as a faulting process does) and `then`
  /// runs when it is re-dispatched after the page arrives.  Must be called
  /// from within `pid`'s own continuation.
  void access_from_process(Cpu& cpu, ProcessId pid, std::uint64_t page,
                           bool write, std::function<void()> then);

  std::uint32_t frames() const { return frames_; }
  std::uint32_t page_bytes() const { return page_bytes_; }
  std::uint32_t resident_count() const {
    return static_cast<std::uint32_t>(table_.size());
  }
  const VmStats& stats() const { return stats_; }

  /// Drops every resident page without writeback (process killed) — used by
  /// GLUnix when an evicted job's state has already been checkpointed.
  void discard_all();

 private:
  struct Entry {
    std::list<std::uint64_t>::iterator lru_pos;
    bool dirty = false;
  };

  void evict_one(std::function<void()> then);
  void finish_fetch(std::uint64_t page, bool write);

  sim::Engine& engine_;
  std::uint32_t frames_;
  std::uint32_t page_bytes_;
  Pager& pager_;
  std::list<std::uint64_t> lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, Entry> table_;
  // Faults in flight: page -> waiting continuations (first entry drives the
  // fetch; later ones piggyback).
  std::unordered_map<std::uint64_t, std::vector<std::function<void()>>>
      inflight_;
  std::uint32_t frames_reserved_ = 0;  // frames held by in-flight fetches
  VmStats stats_;
  obs::TrackId obs_track_;
  obs::Collector stats_obs_;
};

}  // namespace now::os
