// Unit tests for the fabric models.
#include <gtest/gtest.h>

#include "net/hierarchical.hpp"
#include "net/network.hpp"
#include "net/placement.hpp"
#include "net/presets.hpp"
#include "net/shared_bus.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

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

TEST(FabricParams, SerializationScalesWithBytes) {
  FabricParams p;
  p.link_bandwidth_bps = 100e6;  // 100 Mb/s -> 80 ns/byte
  EXPECT_EQ(p.serialization(1000), sim::from_us(80));
  EXPECT_EQ(p.serialization(0), 0);
}

TEST(FabricParams, HeaderBytesAdded) {
  FabricParams p;
  p.link_bandwidth_bps = 8e6;  // 1 us per byte
  p.header_bytes = 20;
  EXPECT_EQ(p.serialization(100), sim::from_us(120));
}

TEST(FabricParams, AtmCellsRoundUp) {
  FabricParams p = atm_155mbps();
  // 49 bytes of payload needs two 53-byte cells.
  const auto one_cell = p.serialization(48);
  const auto two_cells = p.serialization(49);
  EXPECT_GT(two_cells, one_cell);
  EXPECT_EQ(two_cells, p.serialization(96));
}

TEST(FlatSwitch, UnloadedTransitMatchesModel) {
  sim::Engine eng;
  HierarchicalNetwork net(eng, fddi_medusa());
  sim::SimTime delivered_at = -1;
  net.attach(0, [](Packet&&) {});
  net.attach(1, [&](Packet&&) { delivered_at = eng.now(); });
  net.send(make_packet(0, 1, 1024));
  eng.run();
  EXPECT_EQ(delivered_at, net.unloaded_transit(0, 1, 1024));
}

TEST(FlatSwitch, UplinkSerializesBackToBackSends) {
  sim::Engine eng;
  FabricParams p;
  p.link_bandwidth_bps = 8e6;  // 1 us/byte
  p.latency = 0;
  HierarchicalNetwork net(eng, p);
  std::vector<sim::SimTime> times;
  net.attach(0, [](Packet&&) {});
  net.attach(1, [&](Packet&&) { times.push_back(eng.now()); });
  net.send(make_packet(0, 1, 100));
  net.send(make_packet(0, 1, 100));
  eng.run();
  ASSERT_EQ(times.size(), 2u);
  // Second packet waits for the first's serialization on the uplink, then
  // also queues behind it on the downlink.
  EXPECT_EQ(times[0], sim::from_us(200));
  EXPECT_EQ(times[1], sim::from_us(300));
}

TEST(FlatSwitch, DisjointPairsDontContend) {
  sim::Engine eng;
  FabricParams p;
  p.link_bandwidth_bps = 8e6;
  p.latency = 0;
  HierarchicalNetwork net(eng, p);
  std::vector<sim::SimTime> times(4, -1);
  for (NodeId n = 0; n < 4; ++n) {
    net.attach(n, [&, n](Packet&&) { times[n] = eng.now(); });
  }
  net.send(make_packet(0, 1, 100));
  net.send(make_packet(2, 3, 100));
  eng.run();
  // Switched fabric: both transfers complete in one serialization x2.
  EXPECT_EQ(times[1], times[3]);
}

TEST(FlatSwitch, DownlinkContentionQueuesFanIn) {
  sim::Engine eng;
  FabricParams p;
  p.link_bandwidth_bps = 8e6;
  p.latency = 0;
  HierarchicalNetwork net(eng, p);
  std::vector<sim::SimTime> arrivals;
  for (NodeId n = 0; n < 3; ++n) {
    net.attach(n, [&](Packet&&) { arrivals.push_back(eng.now()); });
  }
  // Two senders target node 2 simultaneously: the second transfer must
  // queue on node 2's downlink.
  net.send(make_packet(0, 2, 100));
  net.send(make_packet(1, 2, 100));
  eng.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], sim::from_us(200));
  EXPECT_EQ(arrivals[1], sim::from_us(300));
}

TEST(FlatSwitch, IsOneRackWithNoTrunks) {
  sim::Engine eng;
  HierarchicalNetwork net(eng, myrinet());
  for (NodeId n = 0; n < 64; ++n) net.attach(n, [](Packet&&) {});
  for (NodeId n = 0; n < 64; ++n) net.send(make_packet(n, 63 - n, 512));
  eng.run();
  // The locality counters are registered; no spine-trunk gauge is.
  const std::string dump = obs::metrics().dump_json();
  EXPECT_NE(dump.find("\"net.rack_local_packets\""), std::string::npos);
  EXPECT_EQ(dump.find(".spine"), std::string::npos);
  EXPECT_EQ(net.hier_stats().cross_rack_packets, 0u);
  EXPECT_EQ(net.hier_stats().rack_local_packets, net.stats().packets_sent);
  EXPECT_EQ(net.stats().packets_sent, 64u);
}

TEST(SharedBus, SendersShareOneMedium) {
  sim::Engine eng;
  FabricParams p;
  p.link_bandwidth_bps = 8e6;
  p.latency = 0;
  SharedBusNetwork net(eng, p);
  std::vector<sim::SimTime> arrivals;
  for (NodeId n = 0; n < 4; ++n) {
    net.attach(n, [&](Packet&&) { arrivals.push_back(eng.now()); });
  }
  // Disjoint pairs STILL contend on Ethernet — the defining difference
  // from the switched fabric.
  net.send(make_packet(0, 1, 100));
  net.send(make_packet(2, 3, 100));
  eng.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_GE(arrivals[1] - arrivals[0], sim::from_us(100));
}

TEST(SharedBus, UtilizationTracksLoad) {
  sim::Engine eng;
  SharedBusNetwork net(eng, ethernet_10mbps());
  net.attach(0, [](Packet&&) {});
  net.attach(1, [](Packet&&) {});
  for (int i = 0; i < 50; ++i) net.send(make_packet(0, 1, 1500));
  eng.run();
  EXPECT_GT(net.utilization(), 0.5);
  EXPECT_LE(net.utilization(), 1.0);
}

TEST(Network, RxBufferOverflowDrops) {
  sim::Engine eng;
  HierarchicalNetwork net(eng, fddi_medusa());
  int delivered = 0;
  net.attach(0, [](Packet&&) {});
  net.attach(1, [&](Packet&&) { ++delivered; }, /*rx_buffer_bytes=*/2048);
  for (int i = 0; i < 4; ++i) net.send(make_packet(0, 1, 1024));
  eng.run();
  // Nothing released the buffer, so only two packets fit.
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.stats().packets_dropped, 2u);
}

TEST(Network, ReleaseRxMakesRoomAgain) {
  sim::Engine eng;
  HierarchicalNetwork net(eng, fddi_medusa());
  int delivered = 0;
  net.attach(0, [](Packet&&) {});
  net.attach(1,
             [&](Packet&& pkt) {
               ++delivered;
               net.release_rx(1, pkt.size_bytes);  // consume immediately
             },
             /*rx_buffer_bytes=*/2048);
  for (int i = 0; i < 4; ++i) net.send(make_packet(0, 1, 1024));
  eng.run();
  EXPECT_EQ(delivered, 4);
  EXPECT_EQ(net.stats().packets_dropped, 0u);
}

TEST(Network, StatsCountTraffic) {
  sim::Engine eng;
  HierarchicalNetwork net(eng, myrinet());
  net.attach(0, [](Packet&&) {});
  net.attach(1, [](Packet&&) {});
  net.send(make_packet(0, 1, 4096));
  net.send(make_packet(1, 0, 100));
  eng.run();
  EXPECT_EQ(net.stats().packets_sent, 2u);
  EXPECT_EQ(net.stats().packets_delivered, 2u);
  EXPECT_EQ(net.stats().bytes_sent, 4196u);
}

TEST(Presets, RelativeSpeeds) {
  // The paper's ordering: MPP fabrics << switched LANs << shared Ethernet
  // for an 8 KB transfer.
  sim::Engine eng;
  HierarchicalNetwork mpp(eng, cm5_fabric());
  HierarchicalNetwork atm(eng, atm_155mbps());
  SharedBusNetwork eth(eng, ethernet_10mbps());
  const auto t_mpp = mpp.unloaded_transit(0, 1, 8192);
  const auto t_atm = atm.unloaded_transit(0, 1, 8192);
  const auto t_eth = eth.unloaded_transit(8192);
  EXPECT_LT(t_mpp, t_atm);
  EXPECT_LT(t_atm, t_eth);
  // Table 2's data-transfer row: ~6,250 us on Ethernet vs ~400 us on ATM
  // for 8 KB; our wire models should land in that regime.
  EXPECT_NEAR(sim::to_us(t_eth), 6'250, 800);
  // Cut-through ATM: one ~400-470 us serialization plus switch latency.
  EXPECT_NEAR(sim::to_us(t_atm), 500, 150);
}

// ---------------------------------------------------------------------------
// Client placement helpers (building-scale benches)

TEST(Placement, RackLocalSkipsTheServerAndCycles) {
  TopologyParams topo;
  topo.nodes_per_rack = 4;
  topo.racks = 3;
  // Server mid-rack: slots are the rack's other nodes in increasing id
  // order, reused round-robin once the rack is exhausted.
  const auto c = rack_local_clients(topo, 5, 7);
  const std::vector<NodeId> want{4, 6, 7, 4, 6, 7, 4};
  EXPECT_EQ(c, want);
  for (const NodeId n : c) {
    EXPECT_EQ(n / 4, 5u / 4) << "left the server's rack";
    EXPECT_NE(n, 5u);
  }
}

TEST(Placement, SpreadDealsOnePerRackThenWraps) {
  TopologyParams topo;
  topo.nodes_per_rack = 4;
  topo.racks = 4;
  // Server in rack 0: racks 1..3 get one client each, then a second each,
  // and the slot index advances every full pass.
  const auto c = spread_clients(topo, 0, 8);
  const std::vector<NodeId> want{4, 8, 12, 5, 9, 13, 6, 10};
  EXPECT_EQ(c, want);
  for (const NodeId n : c) EXPECT_NE(n / 4, 0u) << "landed in server rack";
}

TEST(Placement, SpreadSkipsAnInteriorServerRack) {
  TopologyParams topo;
  topo.nodes_per_rack = 2;
  topo.racks = 3;
  const auto c = spread_clients(topo, 3, 4);  // server in rack 1
  const std::vector<NodeId> want{0, 4, 1, 5};
  EXPECT_EQ(c, want);
}

TEST(Placement, HelpersArePureFunctions) {
  TopologyParams topo;
  topo.nodes_per_rack = 32;
  topo.racks = 32;
  EXPECT_EQ(rack_local_clients(topo, 0, 100),
            rack_local_clients(topo, 0, 100));
  EXPECT_EQ(spread_clients(topo, 0, 2048), spread_clients(topo, 0, 2048));
  // 2048 clients over 31 non-server racks x 32 slots: everything stays in
  // bounds and off the server's rack.
  for (const NodeId n : spread_clients(topo, 0, 2048)) {
    EXPECT_LT(n, 1024u);
    EXPECT_NE(n / 32, 0u);
  }
}

}  // namespace
}  // namespace now::net
