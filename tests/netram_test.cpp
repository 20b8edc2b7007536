// Tests for network RAM: registry, pagers, and the multigrid workload.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/hierarchical.hpp"
#include "net/presets.hpp"
#include "netram/multigrid.hpp"
#include "netram/pager.hpp"
#include "netram/registry.hpp"
#include "proto/am.hpp"
#include "proto/nic_mux.hpp"
#include "proto/rpc.hpp"
#include "sim/engine.hpp"

namespace now::netram {
namespace {

using namespace now::sim::literals;

struct Rig {
  explicit Rig(int n, std::uint64_t donor_dram = 64ull << 20) {
    network = std::make_unique<net::HierarchicalNetwork>(engine,
                                                         net::atm_155mbps());
    mux = std::make_unique<proto::NicMux>(*network);
    am = std::make_unique<proto::AmLayer>(*mux, proto::AmParams{});
    rpc = std::make_unique<proto::RpcLayer>(*am);
    for (int i = 0; i < n; ++i) {
      os::NodeParams p;
      p.dram_bytes = donor_dram;
      nodes.push_back(std::make_unique<os::Node>(
          engine, static_cast<net::NodeId>(i), p));
      mux->attach_node(*nodes.back());
      rpc->bind(*nodes.back());
    }
  }
  sim::Engine engine;
  std::unique_ptr<net::HierarchicalNetwork> network;
  std::unique_ptr<proto::NicMux> mux;
  std::unique_ptr<proto::AmLayer> am;
  std::unique_ptr<proto::RpcLayer> rpc;
  std::vector<std::unique_ptr<os::Node>> nodes;
};

TEST(Registry, RoundRobinsAcrossDonors) {
  Rig rig(3);
  IdleMemoryRegistry reg;
  reg.add_donor(*rig.nodes[1]);
  reg.add_donor(*rig.nodes[2]);
  const auto a = reg.acquire(8192, /*exclude=*/0);
  const auto b = reg.acquire(8192, 0);
  const auto c = reg.acquire(8192, 0);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, c);  // wrapped around
}

TEST(Registry, ExcludesRequestingNode) {
  Rig rig(2);
  IdleMemoryRegistry reg;
  reg.add_donor(*rig.nodes[0]);
  EXPECT_EQ(reg.acquire(8192, /*exclude=*/0), net::kInvalidNode);
  EXPECT_EQ(reg.acquire(8192, 1), 0u);
}

TEST(Registry, ExhaustedPoolReturnsInvalid) {
  Rig rig(2, /*donor_dram=*/16 * 8192);
  IdleMemoryRegistry reg;
  reg.add_donor(*rig.nodes[1]);
  for (int i = 0; i < 16; ++i) {
    EXPECT_NE(reg.acquire(8192, 0), net::kInvalidNode);
  }
  EXPECT_EQ(reg.acquire(8192, 0), net::kInvalidNode);
  reg.release(1, 8192);
  EXPECT_NE(reg.acquire(8192, 0), net::kInvalidNode);
}

TEST(Registry, RevocationNotifiesObservers) {
  Rig rig(2);
  IdleMemoryRegistry reg;
  reg.add_donor(*rig.nodes[1]);
  net::NodeId gone = net::kInvalidNode;
  bool was_graceful = false;
  reg.add_observer([&](net::NodeId id, bool graceful) {
    gone = id;
    was_graceful = graceful;
  });
  reg.revoke_donor(1);
  EXPECT_EQ(gone, 1u);
  EXPECT_TRUE(was_graceful);
  EXPECT_FALSE(reg.is_donor(1));
  EXPECT_EQ(reg.acquire(8192, 0), net::kInvalidNode);
}

TEST(DiskPagerTest, FirstTouchIsZeroFillNotDiskRead) {
  Rig rig(1);
  DiskPager pager(*rig.nodes[0], 8192);
  sim::SimTime at = -1;
  pager.page_in(5, [&] { at = rig.engine.now(); });
  rig.engine.run();
  EXPECT_EQ(pager.disk_reads(), 0u);
  EXPECT_LT(at, 1_ms);  // far cheaper than a disk access
}

TEST(DiskPagerTest, WrittenPageComesBackFromDisk) {
  Rig rig(1);
  DiskPager pager(*rig.nodes[0], 8192);
  pager.page_out(5, [] {});
  rig.engine.run();
  sim::SimTime at = -1;
  pager.page_in(5, [&] { at = rig.engine.now(); });
  rig.engine.run();
  EXPECT_EQ(pager.disk_reads(), 1u);
  EXPECT_GT(sim::to_us(at - 0), 10'000);  // a real disk access
}

TEST(NetRam, PageRoundTripGoesRemote) {
  Rig rig(2);
  IdleMemoryRegistry reg;
  reg.add_donor(*rig.nodes[1]);
  install_donor_service(*rig.rpc, *rig.nodes[1]);
  NetworkRamPager pager(*rig.nodes[0], 8192, reg, *rig.rpc);
  bool stored = false;
  pager.page_out(3, [&] { stored = true; });
  rig.engine.run();
  EXPECT_TRUE(stored);
  EXPECT_EQ(pager.stats().remote_writes, 1u);
  EXPECT_EQ(pager.remote_pages(), 1u);
  const sim::SimTime read_started = rig.engine.now();
  sim::SimTime read_at = -1;
  pager.page_in(3, [&] { read_at = rig.engine.now(); });
  rig.engine.run();
  EXPECT_EQ(pager.stats().remote_reads, 1u);
  // Table 2: remote-memory service over ATM ~1,050 us vs ~15,850 us disk —
  // an order of magnitude below a disk access, well under 3 ms.
  EXPECT_LT(sim::to_us(read_at - read_started), 3'000);
  EXPECT_GT(sim::to_us(read_at - read_started), 500);
  EXPECT_EQ(rig.nodes[0]->disk().reads(), 0u);
}

TEST(NetRam, FallsBackToDiskWhenPoolExhausted) {
  Rig rig(2, /*donor_dram=*/2 * 8192);
  IdleMemoryRegistry reg;
  reg.add_donor(*rig.nodes[1]);
  install_donor_service(*rig.rpc, *rig.nodes[1]);
  NetworkRamPager pager(*rig.nodes[0], 8192, reg, *rig.rpc);
  for (std::uint64_t p = 0; p < 5; ++p) pager.page_out(p, [] {});
  rig.engine.run();
  EXPECT_EQ(pager.stats().remote_writes, 2u);
  EXPECT_EQ(pager.stats().disk_fallback_writes, 3u);
  EXPECT_GT(rig.nodes[0]->disk().writes(), 0u);
}

TEST(NetRam, GracefulRevocationRehomesPages) {
  Rig rig(3);
  IdleMemoryRegistry reg;
  reg.add_donor(*rig.nodes[1]);
  reg.add_donor(*rig.nodes[2]);
  install_donor_service(*rig.rpc, *rig.nodes[1]);
  install_donor_service(*rig.rpc, *rig.nodes[2]);
  NetworkRamPager pager(*rig.nodes[0], 8192, reg, *rig.rpc);
  pager.page_out(1, [] {});
  pager.page_out(2, [] {});
  rig.engine.run();
  reg.revoke_donor(1);
  rig.engine.run();
  // Pages formerly on node 1 moved (to node 2 here); none lost.
  EXPECT_GT(pager.stats().rehomed_pages, 0u);
  EXPECT_EQ(pager.stats().lost_pages, 0u);
  EXPECT_EQ(pager.remote_pages(), 2u);
}

TEST(NetRam, DonorCrashLosesPages) {
  Rig rig(2);
  IdleMemoryRegistry reg;
  reg.add_donor(*rig.nodes[1]);
  install_donor_service(*rig.rpc, *rig.nodes[1]);
  NetworkRamPager pager(*rig.nodes[0], 8192, reg, *rig.rpc);
  pager.page_out(7, [] {});
  rig.engine.run();
  rig.nodes[1]->crash();
  reg.donor_crashed(1);
  EXPECT_EQ(pager.stats().lost_pages, 1u);
  // The lost page now reads as zero-fill (cheap), not a hang.
  bool ok = false;
  pager.page_in(7, [&] { ok = true; });
  rig.engine.run();
  EXPECT_TRUE(ok);
}

TEST(NetRam, ReadaheadAbsorbsSequentialFaults) {
  Rig rig(3, /*donor_dram=*/256ull << 20);
  IdleMemoryRegistry reg;
  reg.add_donor(*rig.nodes[1]);
  reg.add_donor(*rig.nodes[2]);
  install_donor_service(*rig.rpc, *rig.nodes[1]);
  install_donor_service(*rig.rpc, *rig.nodes[2]);
  NetworkRamPager pager(*rig.nodes[0], 8192, reg, *rig.rpc,
                        /*readahead=*/true);
  // Park 32 pages remotely, then fault them back in order with think time
  // between faults (so prefetches can land).
  for (std::uint64_t p = 0; p < 32; ++p) pager.page_out(p, [] {});
  rig.engine.run();
  int served = 0;
  for (std::uint64_t p = 0; p < 32; ++p) {
    rig.engine.schedule_at(rig.engine.now() + p * 10 * sim::kMillisecond,
                           [&pager, &served, p] {
                             pager.page_in(p, [&served] { ++served; });
                           });
  }
  rig.engine.run();
  EXPECT_EQ(served, 32);
  EXPECT_GT(pager.stats().prefetch_hits, 20u);
  // Most faults never crossed the network synchronously.
  EXPECT_LT(pager.stats().remote_reads, 12u);
}

TEST(NetRam, ReadaheadDoesNotHelpRandomAccess) {
  Rig rig(3, /*donor_dram=*/256ull << 20);
  IdleMemoryRegistry reg;
  reg.add_donor(*rig.nodes[1]);
  reg.add_donor(*rig.nodes[2]);
  install_donor_service(*rig.rpc, *rig.nodes[1]);
  install_donor_service(*rig.rpc, *rig.nodes[2]);
  NetworkRamPager pager(*rig.nodes[0], 8192, reg, *rig.rpc,
                        /*readahead=*/true);
  for (std::uint64_t p = 0; p < 64; ++p) pager.page_out(p, [] {});
  rig.engine.run();
  // Fault pages in a scattered order: successors are rarely next.
  sim::Pcg32 rng(9);
  std::vector<std::uint32_t> order(64);
  for (std::uint32_t i = 0; i < 64; ++i) order[i] = i;
  rng.shuffle(order);
  int served = 0;
  for (std::uint32_t i = 0; i < 64; ++i) {
    rig.engine.schedule_at(rig.engine.now() + i * 10 * sim::kMillisecond,
                           [&pager, &served, p = order[i]] {
                             pager.page_in(p, [&served] { ++served; });
                           });
  }
  rig.engine.run();
  EXPECT_EQ(served, 64);
  // Sequential prediction mostly misses under a random reference string.
  EXPECT_LT(pager.stats().prefetch_hits, 16u);
}

TEST(NetRam, ReadaheadCopyIsInvalidatedByPageOut) {
  Rig rig(2);
  IdleMemoryRegistry reg;
  reg.add_donor(*rig.nodes[1]);
  install_donor_service(*rig.rpc, *rig.nodes[1]);
  NetworkRamPager pager(*rig.nodes[0], 8192, reg, *rig.rpc,
                        /*readahead=*/true);
  pager.page_out(1, [] {});
  pager.page_out(2, [] {});
  rig.engine.run();
  pager.page_in(1, [] {});  // triggers prefetch of page 2
  rig.engine.run();
  // Page 2 is rewritten before its fault: the prefetched copy is stale
  // and must not be served.
  pager.page_out(2, [] {});
  rig.engine.run();
  const auto hits_before = pager.stats().prefetch_hits;
  pager.page_in(2, [] {});
  rig.engine.run();
  EXPECT_EQ(pager.stats().prefetch_hits, hits_before);
}

TEST(Multigrid, InMemoryRunIsPureCompute) {
  Rig rig(1);
  DiskPager pager(*rig.nodes[0], 8192);
  MultigridParams mp;
  mp.problem_bytes = 8ull << 20;  // 1,024 pages
  mp.sweeps = 2;
  os::AddressSpace space(rig.engine, /*frames=*/2048, 8192, pager);
  sim::Duration elapsed = -1;
  MultigridRun run(*rig.nodes[0], space, mp, [&](sim::Duration d) {
    elapsed = d;
  });
  run.start();
  rig.engine.run();
  const auto pure_compute = 2 * 1024 * mp.compute_per_page;
  ASSERT_GT(elapsed, 0);
  // Everything fits: runtime is compute plus cheap first-touch fills.
  EXPECT_LT(sim::to_sec(elapsed), sim::to_sec(pure_compute) * 1.1);
  EXPECT_EQ(pager.disk_reads(), 0u);
}

TEST(Multigrid, OversizedProblemThrashesDiskButNotNetram) {
  // A 24 MB problem on an 8 MB workstation: disk paging vs network RAM.
  const std::uint64_t problem = 24ull << 20;
  const std::uint32_t frames = (8ull << 20) / 8192;

  sim::Duration disk_time = 0, netram_time = 0;
  {
    Rig rig(2);
    DiskPager pager(*rig.nodes[0], 8192);
    os::AddressSpace space(rig.engine, frames, 8192, pager);
    MultigridParams mp;
    mp.problem_bytes = problem;
    mp.sweeps = 2;
    MultigridRun run(*rig.nodes[0], space, mp,
                     [&](sim::Duration d) { disk_time = d; });
    run.start();
    rig.engine.run();
  }
  {
    Rig rig(2, /*donor_dram=*/256ull << 20);
    IdleMemoryRegistry reg;
    reg.add_donor(*rig.nodes[1]);
    install_donor_service(*rig.rpc, *rig.nodes[1]);
    NetworkRamPager pager(*rig.nodes[0], 8192, reg, *rig.rpc);
    os::AddressSpace space(rig.engine, frames, 8192, pager);
    MultigridParams mp;
    mp.problem_bytes = problem;
    mp.sweeps = 2;
    MultigridRun run(*rig.nodes[0], space, mp,
                     [&](sim::Duration d) { netram_time = d; });
    run.start();
    rig.engine.run();
    EXPECT_GT(pager.stats().remote_reads, 0u);
  }
  ASSERT_GT(disk_time, 0);
  ASSERT_GT(netram_time, 0);
  // Figure 2's claim: network RAM is several times faster than thrashing.
  EXPECT_GT(static_cast<double>(disk_time) /
                static_cast<double>(netram_time),
            2.5);
}

}  // namespace
}  // namespace now::netram
