// Ablation: network-RAM readahead.  Sequential sweeps (the multigrid
// pattern of Figure 2) telegraph their next fault; prefetching the
// successor page overlaps fetch latency with compute and closes most of
// the gap to all-in-DRAM.
//
// The problem sizes are independent sweep points (--jobs N); each point
// runs its DRAM / netRAM / netRAM+readahead trio serially inside the
// point (the simulation itself is deterministic — no RNG involved).
#include <memory>
#include <string>
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

double run(std::uint64_t problem_mb, bool readahead, bool dram_baseline,
           std::uint64_t* prefetch_hits = nullptr) {
  sim::Engine engine;
  net::HierarchicalNetwork atm(engine, net::atm_155mbps());
  proto::NicMux mux(atm);
  proto::AmLayer am(mux, proto::AmParams{});
  proto::RpcLayer rpc(am);
  std::vector<std::unique_ptr<os::Node>> nodes;
  for (int i = 0; i < 9; ++i) {
    os::NodeParams p;
    p.dram_bytes = 64ull << 20;
    nodes.push_back(std::make_unique<os::Node>(
        engine, static_cast<net::NodeId>(i), p));
    mux.attach_node(*nodes.back());
    rpc.bind(*nodes.back());
  }
  const std::uint32_t page = 8192;
  const auto frames = static_cast<std::uint32_t>(
      ((dram_baseline ? 512ull : 32ull) << 20) / page);

  netram::IdleMemoryRegistry registry;
  for (int i = 1; i < 9; ++i) {
    registry.add_donor(*nodes[i]);
    netram::install_donor_service(rpc, *nodes[i]);
  }
  netram::NetworkRamPager pager(*nodes[0], page, registry, rpc, readahead);
  os::AddressSpace space(engine, frames, page, pager, nodes[0]->id());
  netram::MultigridParams mp;
  mp.problem_bytes = problem_mb << 20;
  mp.sweeps = 3;
  sim::Duration elapsed = 0;
  netram::MultigridRun mg(*nodes[0], space, mp,
                          [&](sim::Duration d) { elapsed = d; });
  mg.start();
  engine.run();
  if (prefetch_hits != nullptr) *prefetch_hits = pager.stats().prefetch_hits;
  return sim::to_sec(elapsed);
}

struct Point {
  double dram = 0;
  double plain = 0;
  double ra = 0;
  std::uint64_t hits = 0;
};

}  // namespace

int main(int argc, char** argv) {
  now::bench::heading(
      "Ablation - network-RAM readahead on the multigrid sweep",
      "extension of Figure 2: prefetching the successor page");
  now::bench::Sweep sweep(argc, argv, "bench/bench_ablation_readahead");

  now::bench::row("%-14s %12s %14s %16s %14s", "problem (MB)", "DRAM (s)",
                  "netRAM (s)", "netRAM+RA (s)", "RA overhead");
  const std::vector<std::uint64_t> sizes{64, 96, 128};
  std::vector<std::string> names;
  for (const std::uint64_t mb : sizes) {
    names.push_back("problem_mb_" + std::to_string(mb));
  }
  const auto points = sweep.run(names, [&](now::exp::RunContext& ctx) {
    const std::uint64_t mb = sizes[ctx.task_index];
    Point p;
    p.dram = run(mb, false, true);
    p.plain = run(mb, false, false);
    p.ra = run(mb, true, false, &p.hits);
    return p;
  });
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const Point& p = points[i];
    now::bench::row("%-14llu %12.1f %14.1f %16.1f %13.0f%%  "
                    "(%llu prefetch hits)",
                    static_cast<unsigned long long>(sizes[i]), p.dram,
                    p.plain, p.ra, 100.0 * (p.ra / p.dram - 1.0),
                    static_cast<unsigned long long>(p.hits));
  }
  now::bench::row("");
  now::bench::row("expected shape: plain netRAM pays the full remote fetch "
                  "per fault (~30%% over");
  now::bench::row("DRAM); readahead overlaps fetches with compute and "
                  "closes most of that gap.");
  return 0;
}
