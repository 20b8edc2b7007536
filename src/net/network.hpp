// Abstract network: attach a delivery handler per node, send packets.
//
// Implementations model *where time goes on the wire* (serialization,
// contention, switch latency) and where packets are dropped (receive-buffer
// overflow).  CPU costs live in now::proto.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/types.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/exec_domain.hpp"
#include "sim/spinlock.hpp"
#include "sim/stats.hpp"

namespace now::net {

/// Invoked at the simulated instant the last byte of a packet reaches the
/// destination NIC buffer.
using DeliveryHandler = std::function<void(Packet&&)>;

/// Aggregate wire statistics.
struct NetworkStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_dropped = 0;
  /// Packets lost because an endpoint's link was administratively down
  /// (fault injection); counted separately from buffer-overflow drops.
  std::uint64_t link_drops = 0;
  std::uint64_t bytes_sent = 0;
  /// Wire time (send call to delivery) in microseconds.
  sim::Summary wire_time_us;
};

/// Base class for all fabric models.
class Network {
 public:
  explicit Network(sim::Engine& engine);
  virtual ~Network() = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers `node`'s NIC.  `rx_buffer_bytes` bounds how much undelivered
  /// data the NIC will hold; packets arriving into a full buffer are dropped
  /// (upper layers provide timeout/retry or credit flow control).
  /// 0 means unbounded.
  void attach(NodeId node, DeliveryHandler handler,
              std::uint32_t rx_buffer_bytes = 0);

  /// True if `node` has been attached.
  bool attached(NodeId node) const;

  /// Injects a packet.  The caller is responsible for having charged any
  /// sender CPU overhead first.  Delivery (or drop) happens asynchronously.
  virtual void send(Packet pkt) = 0;

  /// Upper layers call this when they have consumed a delivered packet's
  /// buffer space (AM handlers free it immediately; the TCP model frees it
  /// when the application reads).
  void release_rx(NodeId node, std::uint32_t bytes);

  /// Administratively takes `node`'s link down (or back up) — the cable
  /// is pulled but the machine keeps running.  While down, packets whose
  /// source or destination is `node` are dropped at delivery time; upper
  /// layers see silence and recover through their own timeout/retry.
  void set_link_up(NodeId node, bool up);
  /// True unless the node's link has been taken down (unattached nodes
  /// report true: there is no cable to pull).
  bool link_up(NodeId node) const;

  const NetworkStats& stats() const { return stats_; }
  sim::Engine& engine() { return engine_; }

  /// Installs the execution domain for partitioned runs (nullptr = serial).
  /// Must be called after every node is attached and before the run starts;
  /// backends pre-size their per-node state here so no container grows once
  /// lanes are live.
  void set_domain(sim::ExecDomain* domain) {
    domain_ = domain;
    on_domain_set();
  }
  sim::ExecDomain* domain() { return domain_; }

  /// The engine that `node`'s events run on: its partition lane when a
  /// domain is installed, the cluster engine otherwise.  Every site that
  /// reads "now" or schedules work *at a node* goes through this.
  sim::Engine& engine_for(NodeId node) {
    return domain_ != nullptr ? domain_->engine_for(node) : engine_;
  }

  /// Minimum one-way latency between distinct nodes — the upper bound for a
  /// conservative lookahead window.  0 means "no safe lookahead" (shared
  /// media where one node's send instantly contends with every other's);
  /// such fabrics cannot be partitioned.
  virtual sim::Duration min_latency() const { return 0; }

 protected:
  struct Port {
    DeliveryHandler handler;
    std::uint32_t rx_capacity = 0;  // 0 = unbounded
    std::uint32_t rx_used = 0;
    bool in_use = false;
    bool link_up = true;
  };

  /// Delivers (or drops, if the RX buffer is full) at the current simulated
  /// time.  Subclasses call this from their scheduled completion events; in
  /// a partitioned run those events execute on the destination's lane, so
  /// Port state stays lane-confined.
  void deliver_now(Packet&& pkt);

  /// Hook for backends to react to set_domain (pre-sizing per-node state).
  virtual void on_domain_set() {}

  /// Called at the end of attach(): backends size per-node link state and
  /// register per-port instruments *here*, once, so the packet path does
  /// pure indexed loads — no registry lookups, no grow-on-demand branches.
  /// Runs on the construction thread, before any traffic.
  virtual void on_attach(NodeId node) { (void)node; }

  Port* port(NodeId node);
  const Port* port(NodeId node) const;
  /// One past the highest attached node id (backends pre-size per-node
  /// state to this at set_domain time).
  std::size_t port_count() const { return ports_.size(); }

  sim::Engine& engine_;
  sim::ExecDomain* domain_ = nullptr;
  NetworkStats stats_;
  // Guards stats_: sends mutate it from source lanes, deliveries from
  // destination lanes.  Uncontended in serial runs.
  sim::SpinLock stats_lock_;
  obs::TrackId obs_track_;

 private:
  std::vector<Port> ports_;
  obs::Collector stats_obs_;
};

}  // namespace now::net
