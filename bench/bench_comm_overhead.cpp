// The low-overhead-communication measurements from the text:
//   - kernel TCP: 456 us overhead+latency on Ethernet at 9 Mb/s peak;
//     626 us on ATM at 78 Mb/s (bandwidth alone doesn't fix overhead);
//   - Active Messages on Medusa FDDI: 8 us overhead + 8 us latency;
//   - sockets on AM: ~25 us one-way, ~10x faster than TCP;
//   - half-power message sizes: ~175 B (AM), 760 B (1-copy TCP),
//     1,350 B (TCP).
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "net/hierarchical.hpp"
#include "net/presets.hpp"
#include "net/shared_bus.hpp"
#include "proto/am.hpp"
#include "proto/am_sockets.hpp"
#include "proto/costs.hpp"
#include "proto/nic_mux.hpp"
#include "proto/tcp.hpp"
#include "sim/engine.hpp"

namespace {

using namespace now;

struct TcpRun {
  double one_way_us = 0;
  double peak_mbps = 0;
};

TcpRun measure_tcp(bool atm, proto::ProtocolCosts costs) {
  sim::Engine engine;
  std::unique_ptr<net::Network> fabric;
  if (atm) {
    fabric = std::make_unique<net::HierarchicalNetwork>(engine,
                                                        net::atm_155mbps());
  } else {
    fabric = std::make_unique<net::SharedBusNetwork>(
        engine, net::ethernet_10mbps());
  }
  proto::NicMux mux(*fabric);
  os::Node n0(engine, 0, os::NodeParams{});
  os::Node n1(engine, 1, os::NodeParams{});
  mux.attach_node(n0);
  mux.attach_node(n1);
  proto::TcpParams tp;
  tp.costs = costs;
  tp.mtu_bytes = atm ? 9'180 : 1'500;
  proto::TcpLayer tcp(mux, tp);

  TcpRun r;
  sim::SimTime at = -1;
  tcp.listen(1, 80, [&](proto::TcpMessage&&) { at = engine.now(); });
  tcp.send(0, 9, 1, 80, 100, {});
  engine.run();
  r.one_way_us = sim::to_us(at);

  // Bandwidth: one big transfer.
  sim::Engine eng2;
  std::unique_ptr<net::Network> fabric2;
  if (atm) {
    fabric2 = std::make_unique<net::HierarchicalNetwork>(eng2,
                                                         net::atm_155mbps());
  } else {
    fabric2 = std::make_unique<net::SharedBusNetwork>(
        eng2, net::ethernet_10mbps());
  }
  proto::NicMux mux2(*fabric2);
  os::Node m0(eng2, 0, os::NodeParams{});
  os::Node m1(eng2, 1, os::NodeParams{});
  mux2.attach_node(m0);
  mux2.attach_node(m1);
  proto::TcpLayer tcp2(mux2, tp);
  const std::uint32_t total = 4 << 20;
  sim::SimTime done = -1;
  tcp2.listen(1, 80, [&](proto::TcpMessage&&) { done = eng2.now(); });
  tcp2.send(0, 9, 1, 80, total, {});
  eng2.run();
  r.peak_mbps = total * 8.0 / sim::to_sec(done) / 1e6;
  return r;
}

struct AmRun {
  double one_way_us = 0;
  double peak_mbps = 0;
  double half_power_bytes = 0;
};

double am_one_way_us(proto::AmLayer& am, net::HierarchicalNetwork& net,
                     std::uint32_t bytes) {
  return sim::to_us(
      am.unloaded_one_way(bytes, net.unloaded_transit(0, 1, bytes + 16)));
}

AmRun measure_am() {
  sim::Engine engine;
  net::HierarchicalNetwork medusa(engine, net::fddi_medusa());
  proto::NicMux mux(medusa);
  os::Node n0(engine, 0, os::NodeParams{});
  os::Node n1(engine, 1, os::NodeParams{});
  mux.attach_node(n0);
  mux.attach_node(n1);
  proto::AmParams ap;
  ap.costs = proto::am_medusa();
  ap.window = 64;
  proto::AmLayer am(mux, ap);
  const auto e0 = am.create_endpoint(n0, proto::AmLayer::Mode::kInterrupt);
  const auto e1 = am.create_endpoint(n1, proto::AmLayer::Mode::kInterrupt);
  int handled = 0;
  am.register_handler(e1, 1, [&](const proto::AmMessage&) { ++handled; });

  AmRun r;
  sim::SimTime at = -1;
  am.register_handler(e1, 2,
                      [&](const proto::AmMessage&) { at = engine.now(); });
  am.send(e0, e1, 2, 32, {});
  engine.run();
  r.one_way_us = sim::to_us(at);

  // Bandwidth sweep to find the half-power point.
  const double peak_time_per_byte =
      am_one_way_us(am, medusa, 1 << 20) / static_cast<double>(1 << 20);
  r.peak_mbps = 8.0 / peak_time_per_byte;
  for (std::uint32_t n = 16; n < (1u << 20); n += 8) {
    const double bw = n / am_one_way_us(am, medusa, n);
    if (bw >= 0.5 / peak_time_per_byte) {
      r.half_power_bytes = n;
      break;
    }
  }
  return r;
}

double model_half_power(const proto::ProtocolCosts& c,
                        const net::FabricParams& fabric) {
  // n_1/2: message size where achieved bandwidth is half the peak.
  const double fixed_us =
      sim::to_us(c.send_fixed + c.recv_fixed + fabric.latency);
  const double per_byte_us =
      (c.send_per_byte_ns + c.recv_per_byte_ns) / 1000.0 +
      8.0 / (fabric.link_bandwidth_bps / 1e6);
  return fixed_us / per_byte_us;
}

}  // namespace

int main(int argc, char** argv) {
  now::bench::heading(
      "Low-overhead communication (text measurements)",
      "'A Case for NOW', 'Low-overhead communication' section");
  now::bench::JsonReport report(argc, argv, "bench/bench_comm_overhead",
                                "us_one_way_and_mbps");
  report.method(
      "end-to-end one-way latency and peak bandwidth measured on "
      "two-node simulated fabrics; half-power from the analytic cost "
      "model");

  const TcpRun eth = measure_tcp(false, proto::tcp_kernel());
  const TcpRun atm = measure_tcp(true, proto::tcp_kernel_atm());
  now::bench::row("%-28s %16s %14s", "path", "one-way (us)",
                  "peak (Mb/s)");
  now::bench::row("%-28s %16.0f %14.1f   (paper: 456 us, 9 Mb/s)",
                  "kernel TCP over Ethernet", eth.one_way_us,
                  eth.peak_mbps);
  now::bench::row("%-28s %16.0f %14.1f   (paper: 626 us, 78 Mb/s)",
                  "kernel TCP over ATM", atm.one_way_us, atm.peak_mbps);

  const AmRun am = measure_am();
  now::bench::row("%-28s %16.1f %14.1f   (paper: 8 us o/side + 8 us L "
                  "=> ~24 us one-way)",
                  "Active Messages on Medusa", am.one_way_us, am.peak_mbps);
  // Sockets on AM, measured through the real shim layer.
  double sockets_us = 0;
  {
    sim::Engine eng;
    net::HierarchicalNetwork medusa(eng, net::fddi_medusa());
    proto::NicMux mux(medusa);
    os::Node n0(eng, 0, os::NodeParams{});
    os::Node n1(eng, 1, os::NodeParams{});
    mux.attach_node(n0);
    mux.attach_node(n1);
    proto::AmParams ap;
    ap.costs = proto::am_medusa();
    proto::AmLayer am2(mux, ap);
    proto::AmSockets socks(am2);
    socks.bind_node(n0);
    socks.bind_node(n1);
    sim::SimTime at = -1;
    socks.listen(1, 80,
                 [&](proto::AmSocketMessage&&) { at = eng.now(); });
    socks.send(0, 9, 1, 80, 64, {});
    eng.run();
    sockets_us = sim::to_us(at);
  }
  now::bench::row("%-28s %16.1f %14s   (paper: ~25 us, ~10x beats TCP)",
                  "sockets on AM (measured)", sockets_us, "-");

  report.value("tcp_ethernet", "one_way_us", eth.one_way_us);
  report.value("tcp_ethernet", "peak_mbps", eth.peak_mbps);
  report.value("tcp_ethernet", "paper_one_way_us", 456);
  report.value("tcp_atm", "one_way_us", atm.one_way_us);
  report.value("tcp_atm", "peak_mbps", atm.peak_mbps);
  report.value("tcp_atm", "paper_one_way_us", 626);
  report.value("am_medusa", "one_way_us", am.one_way_us);
  report.value("am_medusa", "peak_mbps", am.peak_mbps);
  report.value("am_medusa", "half_power_bytes", am.half_power_bytes);
  report.value("sockets_on_am", "one_way_us", sockets_us);
  report.note("paper claim: overhead, not bandwidth, governs real "
              "communication performance");

  now::bench::row("");
  now::bench::row("half-power message sizes on the Medusa fabric:");
  now::bench::row("  %-26s %8.0f B   (paper: 175 B)", "Active Messages",
                  am.half_power_bytes);
  now::bench::row("  %-26s %8.0f B   (paper: 760 B)", "single-copy TCP",
                  model_half_power(proto::tcp_single_copy(),
                                   net::fddi_medusa()));
  now::bench::row("  %-26s %8.0f B   (paper: 1,350 B)", "standard TCP",
                  model_half_power(proto::tcp_kernel(),
                                   net::fddi_medusa()));
  now::bench::row("");
  now::bench::row("paper claim: 8x more bandwidth (Ethernet->ATM) but "
                  "*higher* per-message cost;");
  now::bench::row("overhead, not bandwidth, governs real communication "
                  "performance.");
  return 0;
}
