// Conservative parallel discrete-event execution of ONE simulation.
//
// The serial Engine runs a whole cluster on one thread.  ParallelEngine
// partitions the cluster's nodes across P worker lanes — each lane is a
// full slab Engine (the pool/heap machinery of DESIGN.md §"Engine
// internals", instantiated per partition) — plus one *global* lane for
// cluster-level machinery (fault plans, drivers, anything scheduled on the
// Cluster's own engine).  Execution alternates between:
//
//  * Parallel epochs.  All lanes concurrently dispatch their own events
//    inside a window [T, T + W), where the lookahead W is bounded by the
//    fabric's one-way latency L: a packet handed to the wire at t cannot
//    take effect at its destination before t + L >= T + W, so every
//    cross-lane interaction generated inside an epoch lands strictly
//    beyond the barrier and intra-epoch execution is race-free by
//    construction (the hornet/DARSIM quantum discipline).
//  * Barriers.  Cross-lane messages (ExecDomain::post) accumulated during
//    the epoch are drained into their destination lanes in the
//    deterministic merge order (order_time, src_node, dst_node,
//    per-mailbox seq) — a key independent of the thread count, so results
//    are reproducible at any P >= 2.
//  * Exclusive global events.  Whenever the global lane holds the next
//    event, every partition first advances to its timestamp, then the
//    event runs alone with exclusive access to all state — a fault
//    injection can crash a node in any partition exactly as it would
//    serially.
//
// The barrier itself is two atomics: the driver publishes an epoch by a
// release increment of a generation counter, and each worker reports done
// by decrementing a running count.  Both sides spin for a bounded time
// (pause, then yield) before parking in std::atomic::wait, so a short
// epoch costs a cache-line round trip instead of a futex wake-up, and
// lanes sharing one core still hand it over promptly.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "sim/exec_domain.hpp"

namespace now::sim {

struct ParallelConfig {
  /// Partition lanes (worker threads).  Must be >= 1; at 1 the runner is a
  /// plain serial loop over one lane (callers normally skip ParallelEngine
  /// entirely at 1 thread and use the Engine directly).
  unsigned threads = 2;
  /// Number of node ids to partition (block assignment: node n lives on
  /// lane n * threads / nodes).
  std::uint32_t nodes = 0;
  /// Conservative lookahead window W.  Must be > 0 and no larger than the
  /// minimum cross-node interaction latency (the fabric's one-way latency).
  Duration lookahead = 0;
  /// Run once on each worker thread before it executes events.  The sim
  /// layer knows nothing about observability; the Cluster passes a hook
  /// installing the run's thread-local metrics/tracer/log bindings here, so
  /// instrumentation inside partition events resolves to the same instances
  /// as on the driving thread.
  std::function<void()> worker_init;
};

/// Where a partitioned run's wall time went, from three steady_clock reads
/// per epoch on the driving thread and two on each worker.  For every lane,
/// busy + wait + serial_ns equals the wall time spent inside run/run_until.
struct ParallelProfile {
  /// Wall ns inside parallel epochs: publish to the last lane's finish.
  std::uint64_t epoch_ns = 0;
  /// Wall ns on the driving thread between epochs: mailbox drains, peeks
  /// at every lane's next event, and global-lane steps.
  std::uint64_t serial_ns = 0;
  /// Per lane, wall ns spent dispatching its own events inside epochs.
  std::vector<std::uint64_t> lane_busy_ns;
  /// Per lane, how often its thread outwaited the barrier's bounded spin,
  /// parked in atomic::wait and was woken (lane 0: the driver waiting for
  /// workers; workers: waiting for the next epoch).
  std::vector<std::uint64_t> lane_parks;
  /// Epochs by simulated width: bucket k counts widths in [2^k, 2^(k+1)).
  std::array<std::uint64_t, 64> width_log2{};

  /// Per lane, wall ns inside epochs not spent dispatching: waking up and
  /// waiting for the slowest lane.
  std::uint64_t lane_wait_ns(unsigned lane) const {
    return epoch_ns - lane_busy_ns[lane];
  }
};

class ParallelEngine final : public ExecDomain {
 public:
  /// `global` is the caller-owned global lane (the Cluster's own engine);
  /// partition lanes are created here.
  ParallelEngine(Engine& global, ParallelConfig cfg);
  ~ParallelEngine() override;
  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  // --- ExecDomain -------------------------------------------------------
  unsigned lanes() const override { return static_cast<unsigned>(parts_.size()); }
  Engine& engine_for(std::uint32_t node) override {
    return *parts_[lane_of(node)];
  }
  bool same_lane(std::uint32_t a, std::uint32_t b) const override {
    return lane_of(a) == lane_of(b);
  }
  void post(std::uint32_t src_node, std::uint32_t dst_node, SimTime order_time,
            InlinedCallback fn) override;

  Engine& global_engine() { return global_; }
  /// Block assignment: node n lives on lane n * lanes / nodes.
  unsigned lane_of(std::uint32_t node) const override {
    return static_cast<unsigned>(
        (static_cast<std::uint64_t>(node) * parts_.size()) / cfg_.nodes);
  }

  /// Runs until every lane (partitions + global) drains.
  std::uint64_t run();
  /// Runs until simulated time exceeds `deadline` (events at exactly
  /// `deadline` still run) or everything drains, then advances every
  /// lane's clock to `deadline` — mirroring Engine::run_until.
  std::uint64_t run_until(SimTime deadline);

  /// Epoch barriers executed so far (observability for tests/benches).
  std::uint64_t epochs() const { return epochs_; }
  /// Cross-lane messages merged so far.
  std::uint64_t messages_posted() const { return posted_; }
  /// Wall-time split of every run/run_until so far.  Call between runs.
  ParallelProfile profile() const;

 private:
  struct Msg {
    SimTime time = 0;
    std::uint32_t src_node = 0;
    std::uint32_t dst_node = 0;
    std::uint32_t seq = 0;
    InlinedCallback fn;
  };
  // One mailbox per (source lane, destination lane): the source lane is its
  // only writer during an epoch, so posting is lock-free; the barrier (which
  // has exclusive access) drains all P^2 of them.  Posts from the exclusive
  // global context use the source *node*'s mailbox so the merge key stays
  // thread-count independent.
  struct Mailbox {
    std::vector<Msg> msgs;
    std::uint32_t next_seq = 0;
  };

  // Per-lane counters, each written only by the thread running its lane
  // and read by the driver after the barrier.  Cache-line sized so lanes
  // never share a line.
  struct alignas(64) LaneStats {
    std::uint64_t dispatched = 0;
    std::uint64_t busy_ns = 0;
    std::uint64_t parks = 0;
  };

  std::uint64_t drive(SimTime deadline, bool bounded);
  void drain_mailboxes();
  void run_epoch(SimTime bound);
  void advance_parts_to(SimTime t);
  void worker_main(unsigned lane);

  Engine& global_;
  ParallelConfig cfg_;
  std::vector<std::unique_ptr<Engine>> parts_;
  std::vector<Mailbox> mail_;  // indexed [src_lane * P + dst_lane]
  std::vector<Msg> merge_buf_;
  std::vector<LaneStats> lane_;

  // Lane 0 runs on the driving thread, lanes 1..P-1 on workers.  The
  // driver writes epoch_bound_ and shutdown_ before the release increment
  // of generation_; a worker reads them after seeing the increment.
  alignas(64) std::atomic<std::uint32_t> generation_{0};
  SimTime epoch_bound_ = 0;
  bool shutdown_ = false;
  alignas(64) std::atomic<std::uint32_t> running_{0};  // workers in epoch

  std::uint64_t epochs_ = 0;
  std::uint64_t posted_ = 0;
  std::uint64_t epoch_ns_ = 0;
  std::uint64_t serial_ns_ = 0;
  std::array<std::uint64_t, 64> width_log2_{};

  std::vector<std::thread> workers_;  // last: started once the rest exists
};

}  // namespace now::sim
