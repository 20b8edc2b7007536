// Full-stack integration: the building-wide NOW with everything turned on
// at once — GLUnix batch jobs, xFS traffic, network RAM, a node crash, a
// reboot and rejoin — all over one shared fabric.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "core/cluster.hpp"
#include "glunix/spmd.hpp"
#include "netram/pager.hpp"
#include "sim/random.hpp"

namespace now {
namespace {

using namespace now::sim::literals;

TEST(Integration, ADayWithEverythingOn) {
  ClusterConfig cfg;
  cfg.workstations = 10;
  cfg.with_xfs = true;
  cfg.with_netram_registry = true;
  cfg.xfs.client_cache_blocks = 64;
  cfg.xfs.segment_blocks = 9;
  Cluster c(cfg);

  // --- Batch jobs through GLUnix -------------------------------------
  int jobs_done = 0;
  for (int i = 0; i < 4; ++i) {
    c.glunix().run_remote((60 + i * 30) * sim::kSecond, 16ull << 20,
                          [&](net::NodeId) { ++jobs_done; });
  }

  // --- Steady xFS traffic from several clients ------------------------
  auto rng = std::make_shared<sim::Pcg32>(77);
  auto fs_ops = std::make_shared<int>(0);
  auto issue = std::make_shared<std::function<void(int)>>();
  *issue = [&c, rng, fs_ops, issue](int remaining) {
    if (remaining == 0) {
      *issue = nullptr;
      return;
    }
    auto node = rng->next_below(10);
    if (!c.node(node).alive()) node = (node + 1) % 10;
    const xfs::BlockId b = rng->next_below(500);
    auto cont = [&c, fs_ops, issue, remaining](bool) {
      ++*fs_ops;
      c.engine().schedule_in(40 * sim::kMillisecond,
                             [issue, remaining] {
                               if (*issue) (*issue)(remaining - 1);
                             });
    };
    if (rng->bernoulli(0.3)) {
      c.fs().write(node, b, cont);
    } else {
      c.fs().read(node, b, cont);
    }
  };
  (*issue)(2'000);

  // --- An out-of-core computation using network RAM -------------------
  for (std::uint32_t i = 6; i < 10; ++i) {
    c.memory_registry().add_donor(c.node(i));
  }
  netram::NetworkRamPager pager(c.node(1), 8192, c.memory_registry(),
                                c.rpc());
  os::AddressSpace space(c.engine(), /*frames=*/64, 8192, pager,
                         c.node(1).id());
  auto pages_touched = std::make_shared<int>(0);
  auto touch = std::make_shared<std::function<void(std::uint64_t)>>();
  *touch = [&, pages_touched, touch](std::uint64_t p) {
    if (p == 512) {
      *touch = nullptr;
      return;
    }
    space.access(p % 192, true, [&, pages_touched, touch, p] {
      ++*pages_touched;
      c.engine().schedule_in(5 * sim::kMillisecond, [touch, p] {
        if (*touch) (*touch)(p + 1);
      });
    });
  };
  (*touch)(0);

  // --- Disaster and recovery ------------------------------------------
  net::NodeId went_down = net::kInvalidNode;
  net::NodeId came_back = net::kInvalidNode;
  c.glunix().set_node_down_handler([&](net::NodeId n) { went_down = n; });
  c.glunix().set_node_up_handler([&](net::NodeId n) { came_back = n; });
  c.engine().schedule_at(40 * sim::kSecond, [&] {
    c.crash_node(7);
    c.fs().manager_takeover(7, 8, [] {});
  });
  c.engine().schedule_at(120 * sim::kSecond, [&] { c.node(7).reboot(); });

  c.run_until(20 * sim::kMinute);

  EXPECT_EQ(jobs_done, 4);
  EXPECT_EQ(*fs_ops, 2'000);
  EXPECT_EQ(*pages_touched, 512);
  EXPECT_EQ(went_down, 7u);
  EXPECT_EQ(came_back, 7u);
  EXPECT_TRUE(c.glunix().node_believed_up(7));
  EXPECT_TRUE(c.fs().coherence_invariant_holds());
  EXPECT_GT(c.fs().stats().peer_fetches, 0u);
  EXPECT_GT(pager.stats().remote_writes, 0u);
  EXPECT_EQ(c.fs().stats().manager_takeovers, 1u);
}

TEST(Integration, ParallelAppAndFileServiceShareTheFabric) {
  // An SPMD job and xFS traffic coexist on one switched fabric; both
  // complete, and the parallel app's gang can be coscheduled while file
  // service continues underneath.
  ClusterConfig cfg;
  cfg.workstations = 6;
  cfg.with_glunix = false;
  cfg.with_xfs = true;
  cfg.xfs.client_cache_blocks = 32;
  Cluster c(cfg);

  glunix::SpmdParams sp;
  sp.pattern = glunix::CommPattern::kEm3d;
  sp.iterations = 15;
  sp.compute_per_iteration = 10_ms;
  sim::Duration app_elapsed = 0;
  glunix::SpmdApp app(c.am(), c.node_ptrs(), sp,
                      [&](sim::Duration d) { app_elapsed = d; });
  app.start();

  int fs_done = 0;
  for (std::uint32_t n = 0; n < 6; ++n) {
    for (xfs::BlockId b = 0; b < 10; ++b) {
      c.fs().write(n, n * 100 + b, [&](bool) { ++fs_done; });
    }
  }
  c.run_until(5 * sim::kMinute);
  EXPECT_TRUE(app.finished());
  EXPECT_EQ(fs_done, 60);
  EXPECT_GT(app_elapsed, 15 * 10_ms);
}

}  // namespace
}  // namespace now
