// Switched fabric: the "killer network" of the paper (ATM, Myrinet, FDDI
// with a switch, or an MPP interconnect).
//
// Each node has a dedicated full-duplex link to the switch, so aggregate
// bandwidth scales with the number of nodes.  A packet serializes once onto
// the source link, crosses the fabric after `latency`, then occupies the
// destination link for its serialization time (modelling receive-side
// contention: many senders targeting one node queue on its downlink — the
// mechanism behind the Column benchmark's trouble in Figure 4).
#pragma once

#include "net/network.hpp"

namespace now::net {

class SwitchedNetwork final : public Network {
 public:
  SwitchedNetwork(sim::Engine& engine, FabricParams params)
      : Network(engine), params_(params) {}

  void send(Packet pkt) override;

  const FabricParams& params() const { return params_; }

  /// The fabric crossing time: a packet handed to the wire at t cannot
  /// start occupying its destination link before t + latency, which makes
  /// `latency` the conservative lookahead bound for partitioned runs.
  sim::Duration min_latency() const override { return params_.latency; }

  /// Time a minimal `bytes`-byte packet takes wire-to-wire with no
  /// contention: serialization (twice: uplink + downlink) + fabric latency.
  sim::Duration unloaded_transit(std::uint32_t bytes) const;

 protected:
  void on_attach(NodeId node) override;

 private:
  void finish_send(Packet pkt, sim::SimTime up_start);

  FabricParams params_;
  // Flat SoA link state indexed by node id, sized at attach() time: the
  // send path does two indexed loads, no growth checks.
  std::vector<sim::SimTime> uplink_busy_;
  std::vector<sim::SimTime> downlink_busy_;
  // Per-downlink queue-depth gauges ("net.link<N>.queue_us"), the Figure 4
  // receive-contention signal.  Registered once per node at attach() — the
  // packet path never touches the metrics registry (the dotted-path lookup
  // it replaces is measured in bench_micro_engine's BM_ObsGauge* pair).
  std::vector<obs::Gauge*> obs_downlink_q_;
};

}  // namespace now::net
