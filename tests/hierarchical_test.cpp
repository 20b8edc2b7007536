// The building-scale fat tree: topology arithmetic, golden per-hop timing
// (hand-computed finish times under trunk contention), rack-aligned
// partitioning, and thread-count determinism of a kBuildingNow cluster.
#include <gtest/gtest.h>

#include <vector>

#include "core/cluster.hpp"
#include "net/hierarchical.hpp"
#include "net/presets.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/parallel_engine.hpp"

namespace now::net {
namespace {

using sim::kMicrosecond;

Packet make_packet(NodeId src, NodeId dst, std::uint32_t bytes) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.size_bytes = bytes;
  return p;
}

// A fabric whose numbers are trivial to hand-compute: 1 us per byte,
// 2 us per switch crossing, store-and-forward, no framing.
FabricParams slow_fabric() {
  FabricParams p;
  p.link_bandwidth_bps = 8e6;  // 1 us/byte
  p.latency = 2 * kMicrosecond;
  p.header_bytes = 0;
  p.cut_through = false;
  return p;
}

HierarchicalParams tiny_tree(std::uint32_t uplinks) {
  HierarchicalParams p;
  p.fabric = slow_fabric();
  p.topo.nodes_per_rack = 2;  // racks {0,1} and {2,3}
  p.topo.uplinks_per_rack = uplinks;
  return p;
}

// --- Topology arithmetic ---------------------------------------------------

TEST(FatTreeTopology, GoldenRoutes) {
  TopologyParams tp;
  tp.nodes_per_rack = 32;
  tp.uplinks_per_rack = 8;
  FatTreeTopology topo(tp);

  const Route local = topo.route(0, 1);
  EXPECT_TRUE(local.rack_local);
  EXPECT_EQ(local.switch_hops, 1u);
  EXPECT_EQ(local.links, 2u);

  const Route cross = topo.route(0, 33);
  EXPECT_FALSE(cross.rack_local);
  EXPECT_EQ(cross.src_rack, 0u);
  EXPECT_EQ(cross.dst_rack, 1u);
  EXPECT_EQ(cross.switch_hops, 3u);
  EXPECT_EQ(cross.links, 4u);
  // D-mod-k: the spine is a pure function of the destination.
  EXPECT_EQ(cross.spine, 33u % 8u);
  EXPECT_EQ(topo.route(70, 33).spine, cross.spine);
}

TEST(FatTreeTopology, RackMathAndOversubscription) {
  TopologyParams tp;
  tp.nodes_per_rack = 32;
  tp.uplinks_per_rack = 8;
  FatTreeTopology topo(tp);
  EXPECT_EQ(topo.rack_of(0), 0u);
  EXPECT_EQ(topo.rack_of(31), 0u);
  EXPECT_EQ(topo.rack_of(32), 1u);
  EXPECT_TRUE(topo.rack_local(0, 31));
  EXPECT_FALSE(topo.rack_local(31, 32));
  EXPECT_EQ(topo.racks_for(1023), 32u);
  EXPECT_DOUBLE_EQ(topo.oversubscription(), 4.0);
  EXPECT_EQ(topo.trunk_index(3, 5), 3u * 8u + 5u);
  EXPECT_FALSE(topo.describe().empty());
}

TEST(FatTreeTopology, ClampsDegenerateUplinks) {
  TopologyParams none;
  none.nodes_per_rack = 8;
  none.uplinks_per_rack = 0;
  EXPECT_EQ(FatTreeTopology(none).uplinks_per_rack(), 1u);
  TopologyParams fat;
  fat.nodes_per_rack = 8;
  fat.uplinks_per_rack = 64;
  EXPECT_EQ(FatTreeTopology(fat).uplinks_per_rack(), 8u);
}

TEST(Presets, BuildingNowShapes) {
  const HierarchicalParams p = building_now(32, 32, 4.0);
  EXPECT_EQ(p.topo.racks, 32u);
  EXPECT_EQ(p.topo.nodes_per_rack, 32u);
  EXPECT_EQ(p.topo.uplinks_per_rack, 8u);
  EXPECT_EQ(building_now(4, 32, 1.0).topo.uplinks_per_rack, 32u);
  // Oversubscription beyond the rack width floors at one trunk.
  EXPECT_EQ(building_now(2, 16, 64.0).topo.uplinks_per_rack, 1u);
}

// --- Golden per-hop timing -------------------------------------------------
//
// slow_fabric + 2-node racks, 100-byte packets (ser = 100 us, L = 2 us),
// store-and-forward.  Hand-computed: each hop starts when the packet has
// fully left the previous link (prev_done + L) or when the link frees,
// whichever is later, and occupies it for one serialization.

TEST(HierarchicalNetwork, RackLocalMatchesFlatSwitch) {
  sim::Engine eng;
  HierarchicalNetwork net(eng, tiny_tree(1));
  sim::SimTime at = -1;
  net.attach(0, [](Packet&&) {});
  net.attach(1, [&](Packet&&) { at = eng.now(); });
  net.send(make_packet(0, 1, 100));
  eng.run();
  // host up [0,100] --L--> host down [102,202]: the flat switched fabric's
  // store-and-forward formula exactly.
  EXPECT_EQ(at, sim::from_us(202));
  EXPECT_EQ(net.hier_stats().rack_local_packets, 1u);
  EXPECT_EQ(net.hier_stats().cross_rack_packets, 0u);
}

TEST(HierarchicalNetwork, CrossRackSharedTrunkQueues) {
  sim::Engine eng;
  HierarchicalNetwork net(eng, tiny_tree(1));
  std::vector<std::pair<NodeId, sim::SimTime>> deliveries;
  for (NodeId n = 0; n < 4; ++n) {
    net.attach(n, [&, n](Packet&&) { deliveries.emplace_back(n, eng.now()); });
  }
  // Two same-instant sends from different hosts into the single shared
  // trunk.  0->2 walks up[0,100], trunk-up[102,202], trunk-down[204,304],
  // down[306,406].  1->3 has its own host uplink [0,100] but finds the
  // trunk busy until 202: trunk-up[202,302], trunk-down[304,404],
  // down[406,506].
  net.send(make_packet(0, 2, 100));
  net.send(make_packet(1, 3, 100));
  eng.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].first, 2u);
  EXPECT_EQ(deliveries[0].second, sim::from_us(406));
  EXPECT_EQ(deliveries[1].first, 3u);
  EXPECT_EQ(deliveries[1].second, sim::from_us(506));
  EXPECT_EQ(net.hier_stats().cross_rack_packets, 2u);
}

TEST(HierarchicalNetwork, SecondUplinkRemovesContention) {
  sim::Engine eng;
  HierarchicalNetwork net(eng, tiny_tree(2));
  std::vector<sim::SimTime> at;
  for (NodeId n = 0; n < 4; ++n) {
    net.attach(n, [&](Packet&&) { at.push_back(eng.now()); });
  }
  // spine_of(2) = 0 and spine_of(3) = 1: disjoint trunks, no queueing —
  // both packets land at the uncontended 406 us.
  net.send(make_packet(0, 2, 100));
  net.send(make_packet(1, 3, 100));
  eng.run();
  ASSERT_EQ(at.size(), 2u);
  EXPECT_EQ(at[0], sim::from_us(406));
  EXPECT_EQ(at[1], sim::from_us(406));
}

TEST(HierarchicalNetwork, UnloadedTransitMatchesDelivery) {
  sim::Engine eng;
  HierarchicalNetwork net(eng, tiny_tree(1));
  sim::SimTime at = -1;
  for (NodeId n = 0; n < 4; ++n) {
    net.attach(n, [&](Packet&&) { at = eng.now(); });
  }
  net.send(make_packet(0, 2, 100));
  eng.run();
  EXPECT_EQ(at, net.unloaded_transit(0, 2, 100));
  EXPECT_EQ(net.unloaded_transit(0, 2, 100), sim::from_us(406));
  EXPECT_EQ(net.unloaded_transit(0, 1, 100), sim::from_us(202));
}

TEST(HierarchicalNetwork, CutThroughPipelinesAcrossHops) {
  HierarchicalParams p = tiny_tree(1);
  p.fabric.cut_through = true;
  sim::Engine eng;
  HierarchicalNetwork net(eng, p);
  sim::SimTime at = -1;
  for (NodeId n = 0; n < 4; ++n) {
    net.attach(n, [&](Packet&&) { at = eng.now(); });
  }
  net.send(make_packet(0, 2, 100));
  eng.run();
  // Wormhole: one serialization end to end plus 3 switch crossings.
  EXPECT_EQ(at, sim::from_us(100 + 3 * 2));
  EXPECT_EQ(at, net.unloaded_transit(0, 2, 100));
}

TEST(HierarchicalNetwork, MinLatencyIsTheEdgeHopBound) {
  sim::Engine eng;
  HierarchicalNetwork net(eng, tiny_tree(1));
  // The tightest cross-node interaction is rack-local through one edge
  // switch — the safe conservative lookahead for rack-aligned lanes.
  EXPECT_EQ(net.min_latency(), 2 * kMicrosecond);
}

TEST(HierarchicalNetwork, ThousandNodeSmoke) {
  sim::Engine eng;
  HierarchicalNetwork net(eng, building_now(32, 32, 4.0));
  std::uint64_t delivered = 0;
  for (NodeId n = 0; n < 1024; ++n) {
    net.attach(n, [&](Packet&&) { ++delivered; });
  }
  for (NodeId n = 0; n < 1024; ++n) {
    net.send(make_packet(n, (n + 512) % 1024, 512));
  }
  eng.run();
  EXPECT_EQ(delivered, 1024u);
  EXPECT_EQ(net.hier_stats().cross_rack_packets, 1024u);
  EXPECT_EQ(net.stats().packets_delivered, 1024u);
  // Attach-time registration: the per-port instruments exist without any
  // packet-path lookups having created them.
  EXPECT_TRUE(obs::metrics().find<double>("net.link1023.queue_us"));
  EXPECT_TRUE(obs::metrics().find<double>("net.rack31.spine7.queue_us"));
}

// --- Rack-aligned partitioning --------------------------------------------

TEST(ParallelEngine, AlignKeepsRacksOnOneLane) {
  sim::Engine global;
  sim::ParallelConfig pc;
  pc.threads = 4;
  pc.nodes = 128;
  pc.align = 32;
  pc.lookahead = 1;
  sim::ParallelEngine pe(global, pc);
  EXPECT_EQ(pe.lanes(), 4u);
  for (std::uint32_t rack = 0; rack < 4; ++rack) {
    const unsigned lane = pe.lane_of(rack * 32);
    for (std::uint32_t i = 1; i < 32; ++i) {
      EXPECT_EQ(pe.lane_of(rack * 32 + i), lane);
    }
  }
  EXPECT_NE(pe.lane_of(0), pe.lane_of(127));
}

TEST(ParallelEngine, ThreadsClampToAlignmentGroups) {
  sim::Engine global;
  sim::ParallelConfig pc;
  pc.threads = 16;  // more lanes than racks
  pc.nodes = 64;
  pc.align = 32;
  pc.lookahead = 1;
  sim::ParallelEngine pe(global, pc);
  EXPECT_EQ(pe.lanes(), 2u);
}

}  // namespace
}  // namespace now::net

// --- Thread-count determinism on the building fabric -----------------------

namespace {

using namespace now;

struct EchoResult {
  std::vector<std::uint64_t> ops;
  std::vector<std::uint64_t> latency;
  bool operator==(const EchoResult& o) const {
    return ops == o.ops && latency == o.latency;
  }
};

// 64 nodes (two racks), every node echoing against the node half the
// building away, so every call crosses the rack boundary — the worst case
// for lane-aligned partitioning.
EchoResult run_building_cluster(unsigned threads) {
  constexpr std::uint32_t kNodes = 64;
  constexpr proto::MethodId kEcho = 9;
  const sim::SimTime horizon = 5 * sim::kMillisecond;
  ClusterConfig cfg;
  cfg.workstations = kNodes;
  cfg.fabric = Fabric::kBuildingNow;
  cfg.building = net::building_now(2, 32, 4.0);
  cfg.with_glunix = false;
  cfg.threads = threads;
  cfg.partitioning = Partitioning::kNodeLocal;
  Cluster c(cfg);

  auto state = std::make_shared<EchoResult>();
  state->ops.assign(kNodes, 0);
  state->latency.assign(kNodes, 0);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    c.rpc().register_method(
        i, kEcho, [](net::NodeId, std::any req, proto::RpcLayer::ReplyFn r) {
          r(64, std::move(req));
        });
  }
  auto issue = std::make_shared<std::function<void(std::uint32_t)>>();
  *issue = [&c, state, issue, horizon](std::uint32_t i) {
    sim::Engine& e = c.network().engine_for(i);
    if (e.now() >= horizon) return;
    const sim::SimTime t0 = e.now();
    c.rpc().call(i, (i + kNodes / 2) % kNodes, kEcho, 256, std::any{},
                 [&c, state, issue, i, t0](std::any) {
                   ++state->ops[i];
                   state->latency[i] += static_cast<std::uint64_t>(
                       c.network().engine_for(i).now() - t0);
                   c.network().engine_for(i).schedule_in(
                       20 * sim::kMicrosecond, [issue, i] {
                         if (*issue) (*issue)(i);
                       });
                 });
  };
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    c.network().engine_for(i).schedule_at(i % 7, [issue, i] {
      if (*issue) (*issue)(i);
    });
  }
  c.run_until(horizon + sim::kMillisecond);
  *issue = nullptr;
  EchoResult r = *state;
  return r;
}

TEST(BuildingCluster, ThreadCountInvariantResults) {
  const EchoResult serial = run_building_cluster(1);
  std::uint64_t total = 0;
  for (const std::uint64_t n : serial.ops) total += n;
  EXPECT_GT(total, 0u);
  EXPECT_TRUE(serial == run_building_cluster(2));
  EXPECT_TRUE(serial == run_building_cluster(4));
}

}  // namespace
