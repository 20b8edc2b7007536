// Integration tests through the now::Cluster facade: the whole stack
// working together.
#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "glunix/spmd.hpp"
#include "netram/pager.hpp"

namespace now {
namespace {

using namespace now::sim::literals;

TEST(Cluster, BuildsAndIdles) {
  ClusterConfig cfg;
  cfg.workstations = 8;
  Cluster c(cfg);
  c.run_for(10 * sim::kSecond);
  EXPECT_EQ(c.size(), 8u);
  EXPECT_TRUE(c.node(3).alive());
}

TEST(Cluster, GlunixRunsRemoteJobsEndToEnd) {
  ClusterConfig cfg;
  cfg.workstations = 6;
  Cluster c(cfg);
  int completed = 0;
  for (int i = 0; i < 3; ++i) {
    c.glunix().run_remote(20 * sim::kSecond, 16ull << 20,
                          [&](net::NodeId) { ++completed; });
  }
  c.run_until(120 * sim::kSecond);
  EXPECT_EQ(completed, 3);
}

TEST(Cluster, XfsServesTheWholeCluster) {
  ClusterConfig cfg;
  cfg.workstations = 6;
  cfg.with_glunix = false;  // its periodic timers would keep run() going
  cfg.with_xfs = true;
  cfg.xfs.client_cache_blocks = 64;
  cfg.xfs.segment_blocks = 8;
  Cluster c(cfg);
  int done = 0;
  // Every node writes a few blocks; every node reads a neighbour's block.
  for (std::uint32_t n = 0; n < 6; ++n) {
    for (std::uint64_t b = 0; b < 4; ++b) {
      c.fs().write(n, 100 * n + b, [&](bool) { ++done; });
    }
  }
  c.run();
  for (std::uint32_t n = 0; n < 6; ++n) {
    c.fs().read((n + 1) % 6, 100 * n, [&](bool) { ++done; });
  }
  c.run();
  EXPECT_EQ(done, 6 * 4 + 6);
  EXPECT_GT(c.fs().stats().peer_fetches, 0u);  // cooperative reads happened
}

TEST(Cluster, CrashPropagatesAndGlunixNotices) {
  ClusterConfig cfg;
  cfg.workstations = 6;
  cfg.with_xfs = true;
  Cluster c(cfg);
  net::NodeId down = net::kInvalidNode;
  c.glunix().set_node_down_handler([&](net::NodeId n) { down = n; });
  c.engine().schedule_at(3 * sim::kSecond, [&] { c.crash_node(4); });
  c.run_until(30 * sim::kSecond);
  EXPECT_EQ(down, 4u);
  EXPECT_TRUE(c.storage_degraded());
  EXPECT_FALSE(c.node(4).alive());
}

TEST(Cluster, NetworkRamAcrossTheFacade) {
  ClusterConfig cfg;
  cfg.workstations = 4;
  cfg.with_glunix = false;
  cfg.with_netram_registry = true;
  Cluster c(cfg);
  c.memory_registry().add_donor(c.node(2));
  c.memory_registry().add_donor(c.node(3));
  netram::NetworkRamPager pager(c.node(0), 8192, c.memory_registry(),
                                c.rpc());
  os::AddressSpace space(c.engine(), /*frames=*/16, 8192, pager,
                         c.node(0).id());
  int faults_served = 0;
  for (std::uint64_t p = 0; p < 48; ++p) {
    space.access(p, /*write=*/true, [&] { ++faults_served; });
    c.run();
  }
  EXPECT_EQ(faults_served, 48);
  EXPECT_GT(pager.stats().remote_writes, 0u);
}

TEST(Cluster, ParallelProgramOnTheCluster) {
  ClusterConfig cfg;
  cfg.workstations = 4;
  cfg.with_glunix = false;
  cfg.fabric = Fabric::kMyrinet;
  Cluster c(cfg);
  glunix::SpmdParams sp;
  sp.pattern = glunix::CommPattern::kEm3d;
  sp.iterations = 20;
  sp.compute_per_iteration = 5_ms;
  sim::Duration elapsed = 0;
  glunix::SpmdApp app(c.am(), c.node_ptrs(), sp,
                      [&](sim::Duration d) { elapsed = d; });
  app.start();
  c.run_until(60 * sim::kSecond);
  EXPECT_TRUE(app.finished());
  EXPECT_GT(elapsed, 20 * 5_ms);
}

TEST(Cluster, EthernetFabricIsSupported) {
  ClusterConfig cfg;
  cfg.workstations = 4;
  cfg.fabric = Fabric::kEthernet;
  cfg.with_glunix = false;
  Cluster c(cfg);
  bool got = false;
  c.rpc().register_method(1, 200,
                          [](net::NodeId, std::any,
                             proto::RpcLayer::ReplyFn reply) {
                            reply(64, {});
                          });
  c.rpc().call(0, 1, 200, 64, {}, [&](std::any) { got = true; });
  c.run();
  EXPECT_TRUE(got);
}

}  // namespace
}  // namespace now
