// Figure 2: estimated multigrid execution time as the problem grows, on
// three systems: a 32 MB workstation paging to disk, a 128 MB workstation,
// and a 32 MB workstation paging to remote DRAM over the network.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "net/hierarchical.hpp"
#include "net/presets.hpp"
#include "netram/multigrid.hpp"
#include "netram/pager.hpp"
#include "netram/registry.hpp"
#include "proto/am.hpp"
#include "proto/nic_mux.hpp"
#include "proto/rpc.hpp"
#include "sim/engine.hpp"

namespace {

using namespace now;

enum class Config { kDisk32, kDram128, kNetram32 };

double run_multigrid(Config config, std::uint64_t problem_mb) {
  sim::Engine engine;
  net::HierarchicalNetwork atm(engine, net::atm_155mbps());
  proto::NicMux mux(atm);
  proto::AmLayer am(mux, proto::AmParams{});
  proto::RpcLayer rpc(am);

  std::vector<std::unique_ptr<os::Node>> nodes;
  for (int i = 0; i < 9; ++i) {  // 1 client + 8 idle donors
    os::NodeParams p;
    p.dram_bytes = 64ull << 20;
    nodes.push_back(std::make_unique<os::Node>(
        engine, static_cast<net::NodeId>(i), p));
    mux.attach_node(*nodes.back());
    rpc.bind(*nodes.back());
  }

  const std::uint32_t page = 8192;
  const std::uint64_t local_mb = config == Config::kDram128 ? 128 : 32;
  const auto frames = static_cast<std::uint32_t>((local_mb << 20) / page);

  netram::MultigridParams mp;
  mp.problem_bytes = problem_mb << 20;
  mp.sweeps = 3;

  std::unique_ptr<os::Pager> pager;
  netram::IdleMemoryRegistry registry;
  if (config == Config::kNetram32) {
    for (int i = 1; i < 9; ++i) {
      registry.add_donor(*nodes[i]);
      netram::install_donor_service(rpc, *nodes[i]);
    }
    pager = std::make_unique<netram::NetworkRamPager>(*nodes[0], page,
                                                      registry, rpc);
  } else {
    pager = std::make_unique<netram::DiskPager>(*nodes[0], page);
  }

  os::AddressSpace space(engine, frames, page, *pager, nodes[0]->id());
  sim::Duration elapsed = 0;
  netram::MultigridRun run(*nodes[0], space, mp,
                           [&](sim::Duration d) { elapsed = d; });
  run.start();
  engine.run();
  return sim::to_sec(elapsed);
}

}  // namespace

int main() {
  now::bench::heading(
      "Figure 2 - multigrid execution time vs problem size",
      "'A Case for NOW', Figure 2 (32 MB + disk, 128 MB DRAM, 32 MB + "
      "network RAM)");

  now::bench::row("%-14s %14s %14s %14s %12s %12s", "problem (MB)",
                  "32MB+disk (s)", "128MB DRAM (s)", "32MB+netRAM (s)",
                  "netRAM/DRAM", "disk/netRAM");
  for (const std::uint64_t mb : {16ull, 24ull, 32ull, 48ull, 64ull, 96ull,
                                 128ull, 160ull}) {
    const double disk = run_multigrid(Config::kDisk32, mb);
    const double dram = run_multigrid(Config::kDram128, mb);
    const double netram = run_multigrid(Config::kNetram32, mb);
    now::bench::row("%-14llu %14.1f %14.1f %14.1f %11.2fx %11.2fx",
                    static_cast<unsigned long long>(mb), disk, dram, netram,
                    netram / dram, disk / netram);
  }
  now::bench::row("");
  now::bench::row("paper claims (for problems past local DRAM):");
  now::bench::row("  network RAM runs 10-30%% slower than all-in-DRAM");
  now::bench::row("  network RAM is 5-10x faster than thrashing to disk");
  now::bench::note("beyond 128 MB even the big-DRAM machine starts paging "
                   "to disk, which is why its curve takes off last");
  return 0;
}
