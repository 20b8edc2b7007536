// Table 2: time to service an 8 KB file-cache miss from remote memory or
// remote disk, Ethernet vs 155 Mb/s ATM — the arithmetic, cross-checked
// against the wire simulator and the full netram RPC path.
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "models/access.hpp"
#include "net/hierarchical.hpp"
#include "net/presets.hpp"
#include "netram/pager.hpp"
#include "netram/registry.hpp"
#include "proto/am.hpp"
#include "proto/nic_mux.hpp"
#include "proto/rpc.hpp"
#include "sim/engine.hpp"

namespace {

// End-to-end remote-memory page fetch through the real protocol stack.
double simulated_rpc_fetch_us() {
  using namespace now;
  sim::Engine engine;
  net::HierarchicalNetwork atm(engine, net::atm_155mbps());
  proto::NicMux mux(atm);
  proto::AmLayer am(mux, proto::AmParams{});
  proto::RpcLayer rpc(am);
  std::vector<std::unique_ptr<os::Node>> nodes;
  for (int i = 0; i < 2; ++i) {
    nodes.push_back(std::make_unique<os::Node>(
        engine, static_cast<net::NodeId>(i), os::NodeParams{}));
    mux.attach_node(*nodes.back());
    rpc.bind(*nodes.back());
  }
  netram::IdleMemoryRegistry reg;
  reg.add_donor(*nodes[1]);
  netram::install_donor_service(rpc, *nodes[1]);
  netram::NetworkRamPager pager(*nodes[0], 8192, reg, rpc);
  pager.page_out(1, [] {});
  engine.run();
  const now::sim::SimTime start = engine.now();
  now::sim::SimTime end = 0;
  pager.page_in(1, [&] { end = engine.now(); });
  engine.run();
  return now::sim::to_us(end - start);
}

}  // namespace

int main() {
  using namespace now::models;
  now::bench::heading(
      "Table 2 - servicing an 8 KB cache miss from remote memory vs disk",
      "'A Case for NOW', Table 2 (DEC AXP 3000/400, standard drivers)");

  now::bench::row("%-14s %-14s %10s %10s %10s %10s %12s", "network",
                  "source", "memcpy", "overhead", "transfer", "disk",
                  "total (us)");
  const double paper_totals[4] = {6'900, 21'700, 1'050, 15'850};
  int i = 0;
  for (const auto& r : table2_rows()) {
    now::bench::row("%-14s %-14s %10.0f %10.0f %10.0f %10.0f %12.0f  "
                    "(paper: %.0f)",
                    r.network.c_str(),
                    r.from_disk ? "remote disk" : "remote memory",
                    r.memcpy_us, r.net_overhead_us, r.transfer_us,
                    r.disk_us, r.total_us(), paper_totals[i]);
    ++i;
  }

  now::bench::row("");
  now::bench::row("cross-checks against the simulator:");
  now::bench::row("  wire model, Ethernet remote memory: %8.0f us "
                  "(paper 6,900)",
                  simulated_remote_memory_us(false));
  now::bench::row("  wire model, ATM remote memory:      %8.0f us "
                  "(paper 1,050)",
                  simulated_remote_memory_us(true));
  now::bench::row("  full netram RPC fetch over ATM:     %8.0f us "
                  "(paper 1,050; ours pays AM overheads + donor copy)",
                  simulated_rpc_fetch_us());
  now::bench::row("");
  now::bench::row("paper claim: switched-LAN remote memory is an order of "
                  "magnitude faster than disk");
  const auto rows = table2_rows();
  now::bench::row("reproduced:  ATM disk/memory ratio = %.1fx",
                  rows[3].total_us() / rows[2].total_us());
  return 0;
}
