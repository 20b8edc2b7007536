// Hierarchical (fat-tree) fabric: the building-scale NOW.
//
// Racks of workstations hang off edge switches; edge switches reach each
// other through spine trunks.  A rack-local packet behaves exactly like the
// flat SwitchedNetwork: serialize on the source host link, cross the edge
// switch, serialize on the destination host link.  A cross-rack packet
// additionally occupies a spine trunk up and a spine trunk down — four
// links, three switch crossings — and each hop has its own busy_until
// horizon, so contention queues *per hop*: many racks converging on one
// destination rack queue on its trunk downlink before they ever reach the
// host link, and an oversubscribed rack (fewer trunks than hosts) saturates
// its uplinks under cross-rack load while rack-local traffic sails.
//
// Hot-path layout (the 1024-4096-node design point): all link state lives
// in flat structure-of-arrays vectors indexed by node id / trunk index —
// no hash maps, no pointer-chasing, no growth once traffic flows — and
// every per-port observability gauge is a handle cached at attach() time,
// so a send touches the metrics registry zero times.
//
// Partitioned runs reuse the SwitchedNetwork discipline unchanged: send()
// mutates only the source host uplink (source-lane-confined), and every
// downstream hop is applied at the epoch barrier in the deterministic
// (sent_at, src, dst, seq) merge order.  min_latency() is the *edge-hop*
// bound: one switch crossing is the soonest a packet can touch any other
// node's state, so ParallelEngine lanes aligned to racks get the full
// rack-local event stream inside each epoch.
#pragma once

#include "net/network.hpp"
#include "net/topology.hpp"

namespace now::net {

/// Wire statistics split by locality — the sweep axis of the building NOW.
struct HierarchicalStats {
  std::uint64_t rack_local_packets = 0;
  std::uint64_t cross_rack_packets = 0;
};

class HierarchicalNetwork final : public Network {
 public:
  HierarchicalNetwork(sim::Engine& engine, HierarchicalParams params);

  void send(Packet pkt) override;

  const HierarchicalParams& params() const { return params_; }
  const FatTreeTopology& topology() const { return topo_; }
  const HierarchicalStats& hier_stats() const { return hstats_; }

  /// One edge-switch crossing: the soonest any send can take effect at
  /// another node, hence the conservative lookahead bound for partitioned
  /// runs (rack-aligned lanes included — rack-local delivery is the
  /// earliest cross-node interaction there is).
  sim::Duration min_latency() const override {
    return params_.fabric.latency;
  }

  /// Contention-free wire-to-wire time between two specific nodes: 2 or 4
  /// serializations (1 pipelined under cut-through) plus one hop latency
  /// per switch crossed.
  sim::Duration unloaded_transit(NodeId src, NodeId dst,
                                 std::uint32_t bytes) const;

 protected:
  void on_attach(NodeId node) override;

 private:
  void finish_send(Packet pkt, sim::SimTime up_start);
  /// Grows the trunk SoA arrays (and their cached gauges) to cover `racks`.
  void ensure_racks(std::uint32_t racks);

  HierarchicalParams params_;
  FatTreeTopology topo_;
  HierarchicalStats hstats_;

  // --- SoA link state, all indexed, none hashed -------------------------
  // Host links, indexed by node id.
  std::vector<sim::SimTime> host_up_busy_;
  std::vector<sim::SimTime> host_down_busy_;
  // Spine trunks, indexed by topo_.trunk_index(rack, spine).
  std::vector<sim::SimTime> trunk_up_busy_;
  std::vector<sim::SimTime> trunk_down_busy_;

  // --- Cached observability handles (resolved at attach, never on the
  // --- packet path) -----------------------------------------------------
  // Per host downlink: "net.link<N>.queue_us" (same signal as the flat
  // fabric's Figure 4 receive-contention gauge).
  std::vector<obs::Gauge*> host_down_q_;
  // Per trunk pair: "net.rack<R>.spine<S>.queue_us" (uplink backlog — the
  // oversubscription signal).
  std::vector<obs::Gauge*> trunk_up_q_;
  obs::Collector hier_obs_;
};

}  // namespace now::net
