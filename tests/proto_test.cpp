// Tests for the protocol layers: Active Messages, TCP model, RPC.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/hierarchical.hpp"
#include "net/presets.hpp"
#include "net/shared_bus.hpp"
#include "proto/am.hpp"
#include "proto/am_sockets.hpp"
#include "proto/costs.hpp"
#include "proto/nic_mux.hpp"
#include "proto/pvm.hpp"
#include "proto/rpc.hpp"
#include "proto/tcp.hpp"
#include "sim/engine.hpp"

namespace now::proto {
namespace {

using namespace now::sim::literals;

// A small rig: N workstations on a Medusa-class switched fabric.
struct Rig {
  explicit Rig(int n, net::FabricParams fabric = net::fddi_medusa()) {
    network = std::make_unique<net::HierarchicalNetwork>(engine, fabric);
    mux = std::make_unique<NicMux>(*network);
    for (int i = 0; i < n; ++i) {
      os::NodeParams p;
      p.cpu.context_switch = 0;
      nodes.push_back(std::make_unique<os::Node>(
          engine, static_cast<net::NodeId>(i), p));
      mux->attach_node(*nodes.back());
    }
  }
  sim::Engine engine;
  std::unique_ptr<net::HierarchicalNetwork> network;
  std::unique_ptr<NicMux> mux;
  std::vector<std::unique_ptr<os::Node>> nodes;
};

TEST(Am, InterruptHandlerRunsAtOneWayTime) {
  Rig rig(2);
  AmLayer am(*rig.mux, AmParams{});
  const EndpointId e0 = am.create_endpoint(*rig.nodes[0],
                                           AmLayer::Mode::kInterrupt);
  const EndpointId e1 = am.create_endpoint(*rig.nodes[1],
                                           AmLayer::Mode::kInterrupt);
  sim::SimTime at = -1;
  am.register_handler(e1, 1, [&](const AmMessage&) { at = rig.engine.now(); });
  am.send(e0, e1, 1, 64, {});
  rig.engine.run();
  const auto expect = am.unloaded_one_way(
      64, rig.network->unloaded_transit(0, 1, 64 + 16));
  EXPECT_EQ(at, expect);
}

TEST(Am, PayloadAndMetadataArriveIntact) {
  Rig rig(2);
  AmLayer am(*rig.mux, AmParams{});
  const EndpointId e0 =
      am.create_endpoint(*rig.nodes[0], AmLayer::Mode::kInterrupt);
  const EndpointId e1 =
      am.create_endpoint(*rig.nodes[1], AmLayer::Mode::kInterrupt);
  std::string got;
  EndpointId got_src = kInvalidEndpoint;
  std::uint32_t got_bytes = 0;
  am.register_handler(e1, 7, [&](const AmMessage& m) {
    got = std::any_cast<std::string>(std::get<std::any>(m.payload));
    got_src = m.src_ep;
    got_bytes = m.bytes;
  });
  am.send(e0, e1, 7, 128, std::string("hello NOW"));
  rig.engine.run();
  EXPECT_EQ(got, "hello NOW");
  EXPECT_EQ(got_src, e0);
  EXPECT_EQ(got_bytes, 128u);
}

TEST(Am, RequestReplyRoundTrip) {
  Rig rig(2);
  AmLayer am(*rig.mux, AmParams{});
  const EndpointId e0 =
      am.create_endpoint(*rig.nodes[0], AmLayer::Mode::kInterrupt);
  const EndpointId e1 =
      am.create_endpoint(*rig.nodes[1], AmLayer::Mode::kInterrupt);
  sim::SimTime reply_at = -1;
  am.register_handler(e1, 1, [&](const AmMessage&) {
    am.send(e1, e0, 2, 16, {});  // reply from within the handler
  });
  am.register_handler(e0, 2,
                      [&](const AmMessage&) { reply_at = rig.engine.now(); });
  am.send(e0, e1, 1, 16, {});
  rig.engine.run();
  EXPECT_GT(reply_at, 0);
  EXPECT_EQ(am.stats().handled, 2u);
}

TEST(Am, BulkTransferDeliversOnceWithAllBytes) {
  Rig rig(2);
  AmParams params;
  params.mtu_bytes = 8192;
  AmLayer am(*rig.mux, params);
  const EndpointId e0 =
      am.create_endpoint(*rig.nodes[0], AmLayer::Mode::kInterrupt);
  const EndpointId e1 =
      am.create_endpoint(*rig.nodes[1], AmLayer::Mode::kInterrupt);
  int handler_runs = 0;
  std::uint32_t bytes = 0;
  am.register_handler(e1, 3, [&](const AmMessage& m) {
    ++handler_runs;
    bytes = m.bytes;
  });
  am.send(e0, e1, 3, 100'000, {});  // 13 fragments
  rig.engine.run();
  EXPECT_EQ(handler_runs, 1);
  EXPECT_EQ(bytes, 100'000u);
  EXPECT_EQ(am.stats().sent, 13u);
}

TEST(Am, WindowLimitsInFlightUntilAcked) {
  Rig rig(2);
  AmParams params;
  params.window = 4;
  AmLayer am(*rig.mux, params);
  const EndpointId e0 =
      am.create_endpoint(*rig.nodes[0], AmLayer::Mode::kInterrupt);
  const EndpointId e1 =
      am.create_endpoint(*rig.nodes[1], AmLayer::Mode::kInterrupt);
  int handled = 0;
  am.register_handler(e1, 1, [&](const AmMessage&) { ++handled; });
  int injected = 0;
  for (int i = 0; i < 10; ++i) {
    am.send(e0, e1, 1, 32, {}, [&] { ++injected; });
  }
  EXPECT_EQ(injected, 4);  // only a window's worth leaves immediately
  rig.engine.run();
  EXPECT_EQ(injected, 10);  // acks opened the window
  EXPECT_EQ(handled, 10);
}

TEST(Am, PollingEndpointWaitsForOwnerToRun) {
  Rig rig(2);
  AmLayer am(*rig.mux, AmParams{});
  const EndpointId e0 =
      am.create_endpoint(*rig.nodes[0], AmLayer::Mode::kInterrupt);
  const EndpointId e1 =
      am.create_endpoint(*rig.nodes[1], AmLayer::Mode::kPolling);
  sim::SimTime handled_at = -1;
  am.register_handler(e1, 1,
                      [&](const AmMessage&) { handled_at = rig.engine.now(); });

  os::Cpu& cpu1 = rig.nodes[1]->cpu();
  // The endpoint owner computes without polling gaps only after 500 ms.
  std::vector<os::ProcessId> owner(1);
  owner[0] = cpu1.spawn("owner", os::SchedClass::kBatch, [&cpu1, &owner] {
    cpu1.block(owner[0], [&cpu1, &owner] { cpu1.exit(owner[0]); });
  });
  rig.engine.run();  // owner blocks (descheduled, cannot poll)
  am.set_owner(e1, owner[0]);

  am.send(e0, e1, 1, 32, {});
  rig.engine.run();
  EXPECT_EQ(handled_at, -1);  // owner never ran: message sits unpolled

  rig.engine.schedule_at(500_ms, [&] { cpu1.wake(owner[0]); });
  rig.engine.run();
  EXPECT_GE(handled_at, 500_ms);  // drained at dispatch
}

TEST(Am, PollingWhileOwnerRunningHandlesImmediately) {
  Rig rig(2);
  AmLayer am(*rig.mux, AmParams{});
  const EndpointId e0 =
      am.create_endpoint(*rig.nodes[0], AmLayer::Mode::kInterrupt);
  const EndpointId e1 =
      am.create_endpoint(*rig.nodes[1], AmLayer::Mode::kPolling);
  sim::SimTime handled_at = -1;
  am.register_handler(e1, 1,
                      [&](const AmMessage&) { handled_at = rig.engine.now(); });
  os::Cpu& cpu1 = rig.nodes[1]->cpu();
  std::vector<os::ProcessId> owner(1);
  owner[0] = cpu1.spawn("owner", os::SchedClass::kBatch, [&cpu1, &owner] {
    cpu1.compute(owner[0], 10_s, [&cpu1, &owner] { cpu1.exit(owner[0]); });
  });
  am.set_owner(e1, owner[0]);
  rig.engine.schedule_at(1_s, [&] { am.send(e0, e1, 1, 32, {}); });
  rig.engine.run();
  // Handled while the owner was computing (polling loop), not at 10 s.
  EXPECT_GT(handled_at, 1_s);
  EXPECT_LT(handled_at, 2_s);
}

TEST(Am, InjectedLossIsRepairedByRetransmission) {
  Rig rig(2);
  AmParams params;
  params.loss_probability = 0.2;
  params.retry_timeout = 5_ms;
  AmLayer am(*rig.mux, params, /*seed=*/99);
  const EndpointId e0 =
      am.create_endpoint(*rig.nodes[0], AmLayer::Mode::kInterrupt);
  const EndpointId e1 =
      am.create_endpoint(*rig.nodes[1], AmLayer::Mode::kInterrupt);
  int handled = 0;
  am.register_handler(e1, 1, [&](const AmMessage&) { ++handled; });
  for (int i = 0; i < 50; ++i) am.send(e0, e1, 1, 64, {});
  rig.engine.run();
  EXPECT_EQ(handled, 50);  // exactly once despite losses
  EXPECT_GT(am.stats().retransmits, 0u);
  EXPECT_GT(am.stats().injected_losses, 0u);
}

TEST(Am, SendToCrashedNodeTriggersFailureHandler) {
  Rig rig(2);
  AmParams params;
  params.retry_timeout = 2_ms;
  params.max_retries = 3;
  AmLayer am(*rig.mux, params);
  const EndpointId e0 =
      am.create_endpoint(*rig.nodes[0], AmLayer::Mode::kInterrupt);
  const EndpointId e1 =
      am.create_endpoint(*rig.nodes[1], AmLayer::Mode::kInterrupt);
  am.register_handler(e1, 1, [](const AmMessage&) {});
  bool failed = false;
  am.set_failure_handler([&](EndpointId s, EndpointId d) {
    EXPECT_EQ(s, e0);
    EXPECT_EQ(d, e1);
    failed = true;
  });
  rig.nodes[1]->crash();
  am.send(e0, e1, 1, 64, {});
  rig.engine.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(am.stats().handled, 0u);
}

// A sender that dies with frames in flight abandons its window but keeps
// the pair's generation count.  Restarting at epoch 0 would look stale to
// a receiver that already adopted a later epoch: after the reboot the next
// message would be dropped until the pair gave up, and the one after that
// would arrive under an epoch the receiver already holds, be re-acked as a
// duplicate, and never reach its handler.
TEST(Am, SenderCrashWithFramesInFlightKeepsThePairGeneration) {
  Rig rig(2);
  AmParams params;
  params.retry_timeout = 2_ms;
  params.max_retries = 3;
  AmLayer am(*rig.mux, params);
  const EndpointId e0 =
      am.create_endpoint(*rig.nodes[0], AmLayer::Mode::kInterrupt);
  const EndpointId e1 =
      am.create_endpoint(*rig.nodes[1], AmLayer::Mode::kInterrupt);
  int handled = 0;
  am.register_handler(e1, 1, [&](const AmMessage&) { ++handled; });

  // The pair gives up once on a crashed receiver: generation 1.
  rig.nodes[1]->crash();
  am.send(e0, e1, 1, 64, {});
  rig.engine.run();
  ASSERT_EQ(am.stats().pair_failures, 1u);
  rig.nodes[1]->reboot();
  am.send(e0, e1, 1, 64, {});  // the receiver adopts generation 1
  rig.engine.run();
  ASSERT_EQ(handled, 1);

  // The sender dies before its next frame reaches the wire.
  am.send(e0, e1, 1, 64, {});
  rig.nodes[0]->crash();
  rig.engine.run();
  rig.nodes[0]->reboot();

  am.send(e0, e1, 1, 64, {});
  rig.engine.run();
  EXPECT_EQ(handled, 2);
  EXPECT_EQ(am.stats().pair_failures, 1u);  // not dropped as stale
  am.send(e0, e1, 1, 64, {});
  rig.engine.run();
  EXPECT_EQ(handled, 3);
}

TEST(Am, SendFromProcessBlocksOnFullWindow) {
  Rig rig(2);
  AmParams params;
  params.window = 2;
  AmLayer am(*rig.mux, params);
  const EndpointId e0 =
      am.create_endpoint(*rig.nodes[0], AmLayer::Mode::kPolling);
  const EndpointId e1 =
      am.create_endpoint(*rig.nodes[1], AmLayer::Mode::kPolling);
  int handled = 0;
  am.register_handler(e1, 1, [&](const AmMessage&) { ++handled; });

  os::Cpu& cpu0 = rig.nodes[0]->cpu();
  os::Cpu& cpu1 = rig.nodes[1]->cpu();

  // Receiver process: just computes (and thereby polls) forever.
  std::vector<os::ProcessId> rxp(1);
  rxp[0] = cpu1.spawn("rx", os::SchedClass::kBatch, [&cpu1, &rxp] {
    cpu1.compute(rxp[0], 10_s, [&cpu1, &rxp] { cpu1.exit(rxp[0]); });
  });
  am.set_owner(e1, rxp[0]);

  // Sender fires 20 sends back to back; with window 2 it must stall and
  // resume as acks return.
  std::vector<os::ProcessId> txp(1);
  int sent = 0;
  std::function<void()> send_next = [&] {
    if (sent == 20) {
      cpu0.exit(txp[0]);
      return;
    }
    ++sent;
    am.send_from_process(txp[0], e0, e1, 1, 32, {}, [&] { send_next(); });
  };
  txp[0] = cpu0.spawn("tx", os::SchedClass::kBatch, [&] { send_next(); });
  am.set_owner(e0, txp[0]);
  rig.engine.run();
  EXPECT_EQ(sent, 20);
  EXPECT_EQ(handled, 20);
  EXPECT_GT(am.stats().stalled_sends, 0u);
}

TEST(NicAdmission, OnlyAttestedNodesMayTalk) {
  Rig rig(3);
  AmLayer am(*rig.mux, AmParams{});
  const EndpointId e0 =
      am.create_endpoint(*rig.nodes[0], AmLayer::Mode::kInterrupt);
  const EndpointId e1 =
      am.create_endpoint(*rig.nodes[1], AmLayer::Mode::kInterrupt);
  int handled = 0;
  am.register_handler(e1, 1, [&](const AmMessage&) { ++handled; });

  // Enforcement on: the blessed kernel hashes to 0xB007.
  rig.mux->require_admission(0xB007);
  EXPECT_FALSE(rig.mux->admitted(0));
  EXPECT_FALSE(rig.mux->admit(0, 0xBAD));  // wrong image
  EXPECT_TRUE(rig.mux->admit(0, 0xB007));
  EXPECT_TRUE(rig.mux->admit(1, 0xB007));

  am.send(e0, e1, 1, 64, {});
  rig.engine.run_until(rig.engine.now() + sim::kSecond);
  EXPECT_EQ(handled, 1);

  // Node 0 reboots into an unknown kernel: expelled; its traffic vanishes.
  rig.mux->expel(0);
  am.send(e0, e1, 1, 64, {});
  rig.engine.run_until(rig.engine.now() + 500 * sim::kMillisecond);
  EXPECT_EQ(handled, 1);
  EXPECT_GT(rig.mux->rejected_packets(), 0u);

  // Re-attesting (before the sender's window gives the message up for
  // dead) restores service: a retransmission gets through.
  EXPECT_TRUE(rig.mux->admit(0, 0xB007));
  rig.engine.run_until(rig.engine.now() + 10 * sim::kSecond);
  EXPECT_EQ(handled, 2);
}

TEST(NicAdmission, OffByDefault) {
  Rig rig(2);
  EXPECT_TRUE(rig.mux->admitted(0));
  EXPECT_TRUE(rig.mux->admitted(1));
}

TEST(Tcp, OneWaySmallMessageNear456usOnEthernetClassPath) {
  // The paper: 456 us processor overhead + unloaded latency for one small
  // message through kernel TCP on Ethernet.
  Rig rig(2, net::ethernet_10mbps());
  // Shared-bus rig: rebuild with a shared medium.
  sim::Engine eng;
  net::SharedBusNetwork bus(eng, net::ethernet_10mbps());
  NicMux mux(bus);
  os::Node n0(eng, 0, os::NodeParams{});
  os::Node n1(eng, 1, os::NodeParams{});
  mux.attach_node(n0);
  mux.attach_node(n1);
  TcpLayer tcp(mux, TcpParams{});
  sim::SimTime at = -1;
  tcp.listen(1, 80, [&](TcpMessage&&) { at = eng.now(); });
  tcp.send(0, 1000, 1, 80, 100, {});
  eng.run();
  EXPECT_NEAR(sim::to_us(at), 456, 60);
}

TEST(Tcp, LargeMessageSegmentsAndDeliversOnce) {
  Rig rig(2);
  TcpParams params;
  params.mtu_bytes = 1500;
  TcpLayer tcp(*rig.mux, params);
  int deliveries = 0;
  std::uint32_t bytes = 0;
  tcp.listen(1, 80, [&](TcpMessage&& m) {
    ++deliveries;
    bytes = m.bytes;
  });
  tcp.send(0, 1000, 1, 80, 10'000, {});
  rig.engine.run();
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(bytes, 10'000u);
  EXPECT_EQ(tcp.stats().segments, 7u);
}

TEST(Tcp, HostOverheadCapsThroughputBelowWire) {
  // TCP on 155 Mb/s ATM delivered only ~78 Mb/s: the stack, not the wire,
  // is the bottleneck.
  sim::Engine eng;
  net::HierarchicalNetwork atm(eng, net::atm_155mbps());
  NicMux mux(atm);
  os::Node n0(eng, 0, os::NodeParams{});
  os::Node n1(eng, 1, os::NodeParams{});
  mux.attach_node(n0);
  mux.attach_node(n1);
  TcpParams params;
  params.mtu_bytes = 9180;
  TcpLayer tcp(mux, params);
  sim::SimTime done_at = -1;
  const std::uint32_t total = 4 << 20;  // 4 MB
  tcp.listen(1, 80, [&](TcpMessage&&) { done_at = eng.now(); });
  tcp.send(0, 1, 1, 80, total, {});
  eng.run();
  const double mbps = static_cast<double>(total) * 8.0 /
                      sim::to_sec(done_at) / 1e6;
  EXPECT_LT(mbps, 120);  // well below the 155 Mb/s wire
  EXPECT_GT(mbps, 40);
}

TEST(Tcp, SmallWindowStallsButEverythingArrives) {
  Rig rig(2);
  TcpParams params;
  params.mtu_bytes = 1500;
  params.window_bytes = 3'000;  // two segments in flight
  TcpLayer tcp(*rig.mux, params);
  int deliveries = 0;
  tcp.listen(1, 80, [&](TcpMessage&&) { ++deliveries; });
  tcp.send(0, 9, 1, 80, 60'000, {});
  rig.engine.run();
  EXPECT_EQ(deliveries, 1);
  EXPECT_GT(tcp.stats().window_stalls, 0u);
  EXPECT_GT(tcp.stats().acks, 30u);
}

TEST(Tcp, WindowLimitsThroughputOnLongPaths) {
  // Same transfer, same wire, two window sizes: with a high-latency path
  // the window caps bandwidth at window/RTT.
  auto run = [](std::uint32_t window) {
    sim::Engine eng;
    net::FabricParams slow = net::atm_155mbps();
    slow.latency = 5 * sim::kMillisecond;  // a campus-length path
    net::HierarchicalNetwork fabric(eng, slow);
    NicMux mux(fabric);
    os::Node n0(eng, 0, os::NodeParams{});
    os::Node n1(eng, 1, os::NodeParams{});
    mux.attach_node(n0);
    mux.attach_node(n1);
    TcpParams params;
    params.mtu_bytes = 9'180;
    params.window_bytes = window;
    TcpLayer tcp(mux, params);
    sim::SimTime done = -1;
    tcp.listen(1, 80, [&](TcpMessage&&) { done = eng.now(); });
    tcp.send(0, 9, 1, 80, 2 << 20, {});
    eng.run();
    return sim::to_sec(done);
  };
  const double small = run(16 * 1024);
  const double big = run(256 * 1024);
  EXPECT_GT(small / big, 2.0);
}

TEST(Am, BulkTransferToPollingEndpointDrainsAtDispatch) {
  Rig rig(2);
  AmParams params;
  params.mtu_bytes = 8192;
  AmLayer am(*rig.mux, params);
  const EndpointId e0 =
      am.create_endpoint(*rig.nodes[0], AmLayer::Mode::kInterrupt);
  const EndpointId e1 =
      am.create_endpoint(*rig.nodes[1], AmLayer::Mode::kPolling);
  std::uint32_t got = 0;
  am.register_handler(e1, 1,
                      [&](const AmMessage& m) { got = m.bytes; });
  os::Cpu& cpu1 = rig.nodes[1]->cpu();
  std::vector<os::ProcessId> owner(1);
  owner[0] = cpu1.spawn("owner", os::SchedClass::kBatch, [&cpu1, &owner] {
    cpu1.block(owner[0], [&cpu1, &owner] { cpu1.exit(owner[0]); });
  });
  rig.engine.run();  // owner parks
  am.set_owner(e1, owner[0]);
  am.send(e0, e1, 1, 50'000, {});  // 7 fragments, receiver descheduled
  rig.engine.run();
  EXPECT_EQ(got, 0u);  // nothing handled while unpolled
  cpu1.wake(owner[0]);
  rig.engine.run();
  EXPECT_EQ(got, 50'000u);  // whole message assembled at dispatch
}

TEST(NicMuxTest, StackReservationSerializesPerNode) {
  Rig rig(2);
  const sim::SimTime a = rig.mux->reserve_stack(0, sim::from_us(100));
  const sim::SimTime b = rig.mux->reserve_stack(0, sim::from_us(50));
  const sim::SimTime other = rig.mux->reserve_stack(1, sim::from_us(10));
  EXPECT_EQ(a, sim::from_us(100));
  EXPECT_EQ(b, sim::from_us(150));   // queued behind a on the same node
  EXPECT_EQ(other, sim::from_us(10));  // nodes are independent
}

TEST(AmSocketsTest, DeliversWithPortsAndPayload) {
  Rig rig(2);
  AmLayer am(*rig.mux, AmParams{});
  AmSockets socks(am);
  socks.bind_node(*rig.nodes[0]);
  socks.bind_node(*rig.nodes[1]);
  AmSocketMessage got;
  bool received = false;
  socks.listen(1, 443, [&](AmSocketMessage&& m) {
    got = std::move(m);
    received = true;
  });
  socks.send(0, 1234, 1, 443, 100, std::string("fast sockets"));
  rig.engine.run();
  ASSERT_TRUE(received);
  EXPECT_EQ(got.src, 0u);
  EXPECT_EQ(got.src_port, 1234);
  EXPECT_EQ(got.bytes, 100u);
  EXPECT_EQ(std::any_cast<std::string>(got.payload), "fast sockets");
}

TEST(AmSocketsTest, NearlyAnOrderOfMagnitudeFasterThanTcp) {
  // The paper: sockets on AM run one small message one-way in ~25 us vs
  // ~250 us through TCP on the same (Medusa) hardware.
  Rig rig(2);
  AmParams ap;
  ap.costs = am_medusa();
  AmLayer am(*rig.mux, ap);
  AmSockets socks(am);
  socks.bind_node(*rig.nodes[0]);
  socks.bind_node(*rig.nodes[1]);
  sim::SimTime am_at = -1;
  socks.listen(1, 80, [&](AmSocketMessage&&) { am_at = rig.engine.now(); });
  socks.send(0, 9, 1, 80, 64, {});
  rig.engine.run();

  Rig rig2(2);
  TcpParams tp;
  tp.costs = tcp_kernel();
  TcpLayer tcp(*rig2.mux, tp);
  sim::SimTime tcp_at = -1;
  tcp.listen(1, 80, [&](TcpMessage&&) { tcp_at = rig2.engine.now(); });
  tcp.send(0, 9, 1, 80, 64, {});
  rig2.engine.run();

  EXPECT_LT(sim::to_us(am_at), 50);    // paper: ~25 us
  EXPECT_GT(sim::to_us(tcp_at), 250);  // kernel path
  EXPECT_GT(static_cast<double>(tcp_at) / static_cast<double>(am_at), 7.0);
}

// --- PVM ---------------------------------------------------------------

struct PvmRig {
  PvmRig() : rig(2), tcp(*rig.mux, proto::TcpParams{}), pvm(*rig.mux, tcp) {}
  Rig rig;
  TcpLayer tcp;
  PvmLayer pvm;
};

TEST(Pvm, SendRecvByTag) {
  PvmRig r;
  os::Cpu& cpu0 = r.rig.nodes[0]->cpu();
  os::Cpu& cpu1 = r.rig.nodes[1]->cpu();
  std::vector<os::ProcessId> p0(1), p1(1);
  int got = 0;
  PvmTaskId t0 = kInvalidTask, t1 = kInvalidTask;

  p1[0] = cpu1.spawn("rx", os::SchedClass::kBatch, [&] {
    r.pvm.recv(t1, 7, [&](PvmMessage&& m) {
      got = std::any_cast<int>(m.payload);
      EXPECT_EQ(m.tag, 7);
      EXPECT_EQ(m.source, t0);
      cpu1.exit(p1[0]);
    });
  });
  p0[0] = cpu0.spawn("tx", os::SchedClass::kBatch, [&] {
    r.pvm.send(t0, t1, 7, 1024, 99, [&] { cpu0.exit(p0[0]); });
  });
  t0 = r.pvm.enroll(*r.rig.nodes[0], p0[0]);
  t1 = r.pvm.enroll(*r.rig.nodes[1], p1[0]);
  r.rig.engine.run();
  EXPECT_EQ(got, 99);
}

TEST(Pvm, WildcardAndTagFiltering) {
  PvmRig r;
  os::Cpu& cpu0 = r.rig.nodes[0]->cpu();
  os::Cpu& cpu1 = r.rig.nodes[1]->cpu();
  std::vector<os::ProcessId> p0(1), p1(1);
  PvmTaskId t0 = kInvalidTask, t1 = kInvalidTask;
  std::vector<int> order;

  p1[0] = cpu1.spawn("rx", os::SchedClass::kBatch, [&] {
    // Ask for tag 2 first even though tag 1 arrives first, then wildcard.
    r.pvm.recv(t1, 2, [&](PvmMessage&& m) {
      order.push_back(m.tag);
      r.pvm.recv(t1, -1, [&](PvmMessage&& m2) {
        order.push_back(m2.tag);
        cpu1.exit(p1[0]);
      });
    });
  });
  p0[0] = cpu0.spawn("tx", os::SchedClass::kBatch, [&] {
    r.pvm.send(t0, t1, 1, 64, {}, [&] {
      r.pvm.send(t0, t1, 2, 64, {}, [&] { cpu0.exit(p0[0]); });
    });
  });
  t0 = r.pvm.enroll(*r.rig.nodes[0], p0[0]);
  t1 = r.pvm.enroll(*r.rig.nodes[1], p1[0]);
  r.rig.engine.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);  // tag filter skipped the tag-1 message
  EXPECT_EQ(order[1], 1);  // wildcard then drained it
}

TEST(Pvm, DaemonBuffersWhileTaskDescheduled) {
  // The defining PVM property: the daemon accepts messages even though the
  // receiving task is off the CPU; the task reacts when next scheduled.
  PvmRig r;
  os::Cpu& cpu1 = r.rig.nodes[1]->cpu();
  std::vector<os::ProcessId> p1(1), hog(1);
  PvmTaskId t0, t1;
  // A compute hog monopolizes node 1.
  hog[0] = cpu1.spawn("hog", os::SchedClass::kBatch, [&] {
    cpu1.compute(hog[0], 2 * sim::kSecond, [&] { cpu1.exit(hog[0]); });
  });
  sim::SimTime received_at = -1;
  p1[0] = cpu1.spawn("rx", os::SchedClass::kBatch, [&] {
    r.pvm.recv(t1, 1, [&](PvmMessage&&) {
      received_at = r.rig.engine.now();
      cpu1.exit(p1[0]);
    });
  });
  os::Cpu& cpu0 = r.rig.nodes[0]->cpu();
  std::vector<os::ProcessId> p0(1);
  p0[0] = cpu0.spawn("tx", os::SchedClass::kBatch, [&] {
    r.pvm.send(t0, t1, 1, 512, {}, [&] { cpu0.exit(p0[0]); });
  });
  t0 = r.pvm.enroll(*r.rig.nodes[0], p0[0]);
  t1 = r.pvm.enroll(*r.rig.nodes[1], p1[0]);
  r.rig.engine.run();
  // Delivery happened despite the hog; the wake waited out RR quanta but
  // not the hog's full 2 s.
  EXPECT_GT(received_at, 0);
  EXPECT_LT(received_at, 1 * sim::kSecond);
  EXPECT_EQ(r.pvm.stats().delivered, 1u);
}

TEST(Pvm, OrderOfMagnitudeSlowerThanActiveMessages) {
  // The Table 4 story at message granularity: the same one-way small
  // message costs ~an order of magnitude more through the daemon path.
  PvmRig r;
  os::Cpu& cpu0 = r.rig.nodes[0]->cpu();
  os::Cpu& cpu1 = r.rig.nodes[1]->cpu();
  std::vector<os::ProcessId> p0(1), p1(1);
  PvmTaskId t0, t1;
  sim::SimTime pvm_at = -1;
  p1[0] = cpu1.spawn("rx", os::SchedClass::kBatch, [&] {
    r.pvm.recv(t1, 1, [&](PvmMessage&&) {
      pvm_at = r.rig.engine.now();
      cpu1.exit(p1[0]);
    });
  });
  p0[0] = cpu0.spawn("tx", os::SchedClass::kBatch, [&] {
    r.pvm.send(t0, t1, 1, 64, {}, [&] { cpu0.exit(p0[0]); });
  });
  t0 = r.pvm.enroll(*r.rig.nodes[0], p0[0]);
  t1 = r.pvm.enroll(*r.rig.nodes[1], p1[0]);
  r.rig.engine.run();

  Rig rig2(2);
  AmLayer am(*rig2.mux, AmParams{});
  const auto e0 =
      am.create_endpoint(*rig2.nodes[0], AmLayer::Mode::kInterrupt);
  const auto e1 =
      am.create_endpoint(*rig2.nodes[1], AmLayer::Mode::kInterrupt);
  sim::SimTime am_at = -1;
  am.register_handler(e1, 1,
                      [&](const AmMessage&) { am_at = rig2.engine.now(); });
  am.send(e0, e1, 1, 64, {});
  rig2.engine.run();

  EXPECT_GT(pvm_at, 0);
  EXPECT_GT(am_at, 0);
  EXPECT_GT(static_cast<double>(pvm_at) / static_cast<double>(am_at), 8.0);
}

TEST(Rpc, CallReturnsReply) {
  Rig rig(2);
  AmLayer am(*rig.mux, AmParams{});
  RpcLayer rpc(am);
  rpc.bind(*rig.nodes[0]);
  rpc.bind(*rig.nodes[1]);
  rpc.register_method(1, 42,
                      [](net::NodeId caller, std::any req,
                         RpcLayer::ReplyFn reply) {
                        EXPECT_EQ(caller, 0u);
                        const int x = std::any_cast<int>(req);
                        reply(64, x * 2);
                      });
  int got = 0;
  rpc.call(0, 1, 42, 128, 21, [&](std::any resp) {
    got = std::any_cast<int>(resp);
  });
  rig.engine.run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(rpc.replies_received(), 1u);
}

TEST(Rpc, DeferredReplyAfterServerSideWork) {
  Rig rig(2);
  AmLayer am(*rig.mux, AmParams{});
  RpcLayer rpc(am);
  rpc.bind(*rig.nodes[0]);
  rpc.bind(*rig.nodes[1]);
  sim::Engine& eng = rig.engine;
  rpc.register_method(1, 1,
                      [&](net::NodeId, std::any, RpcLayer::ReplyFn reply) {
                        // e.g. a disk access before answering
                        eng.schedule_in(15_ms, [reply = std::move(reply)] {
                          reply(8192, {});
                        });
                      });
  sim::SimTime got_at = -1;
  rpc.call(0, 1, 1, 64, {}, [&](std::any) { got_at = eng.now(); });
  eng.run();
  EXPECT_GT(got_at, 15_ms);
}

TEST(Rpc, TimeoutFiresOnCrashedServerAndLateReplyIsDropped) {
  Rig rig(2);
  AmParams params;
  params.retry_timeout = 2_ms;
  params.max_retries = 2;
  AmLayer am(*rig.mux, params);
  RpcLayer rpc(am);
  rpc.bind(*rig.nodes[0]);
  rpc.bind(*rig.nodes[1]);
  rpc.register_method(1, 1,
                      [](net::NodeId, std::any, RpcLayer::ReplyFn reply) {
                        reply(64, {});
                      });
  rig.nodes[1]->crash();
  bool replied = false;
  bool timed_out = false;
  rpc.call(0, 1, 1, 64, {}, [&](std::any) { replied = true; },
           /*timeout=*/50_ms, [&] { timed_out = true; });
  rig.engine.run();
  EXPECT_TRUE(timed_out);
  EXPECT_FALSE(replied);
  EXPECT_EQ(rpc.timeouts(), 1u);
}

}  // namespace
}  // namespace now::proto
