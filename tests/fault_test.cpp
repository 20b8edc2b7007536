// now::fault — fault injection driving real subsystem reactions.
//
// Deterministic fault schedules with golden expectations: RAID degraded
// operation and rebuild, xFS manager takeover under a crash mid-write,
// GLUnix gang survival across a crash/restart pair, link flaps, and the
// determinism of a stochastic FaultPlan across two identical runs.  The
// availability events (crash, GLUnix node_down, xFS manager_takeover) are
// checked on the exported trace timeline too.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "exp/run_context.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"

namespace now {
namespace {

/// Every instant event `name` on track `cat` in `t`'s Chrome JSON export,
/// as (pid, ts in microseconds) in recording order.
std::vector<std::pair<std::uint32_t, double>> instants(const obs::Tracer& t,
                                                       std::string_view cat,
                                                       std::string_view name) {
  std::ostringstream os;
  t.export_chrome_json(os);
  const std::string head = "{\"name\": \"" + std::string(name) +
                           "\", \"cat\": \"" + std::string(cat) +
                           "\", \"ph\": \"i\"";
  std::vector<std::pair<std::uint32_t, double>> out;
  std::istringstream lines(os.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(head, 0) != 0) continue;
    const auto field = [&line](const char* key) {
      return std::stod(line.substr(line.find(key) + std::strlen(key)));
    };
    out.emplace_back(static_cast<std::uint32_t>(field("\"pid\": ")),
                     field("\"ts\": "));
  }
  return out;
}

TEST(Fault, RaidDegradedOpsAndRebuildGoldenValues) {
  ClusterConfig cfg;
  cfg.workstations = 5;
  cfg.with_glunix = false;
  cfg.with_xfs = true;
  cfg.stripe_group_size = 0;  // one RAID-5 across all five disks
  cfg.fault_policy.rebuild_bytes_per_member = 64 * 1024;
  // Node 2 holds data unit 1 of row 0 (parity rotates starting at node 0):
  // its disk dies at 1 s and is replaced at 5 s.
  cfg.fault_plan.disk_fail_at(1 * sim::kSecond, 2)
      .disk_replace_at(5 * sim::kSecond, 2);
  Cluster c(cfg);

  int done = 0;
  const std::uint32_t blk = 8192;  // stripe unit == xfs block size
  // Healthy small write: classic read-modify-write parity update.
  c.engine().schedule_at(0, [&] {
    c.storage_backend().write(0, 0, blk, [&] { ++done; });
  });
  // Degraded read of the failed member: reconstructed from survivors.
  c.engine().schedule_at(2 * sim::kSecond, [&] {
    c.storage_backend().read(0, blk, blk, [&] { ++done; });
  });
  // Degraded small write to the failed member: parity absorbs it.
  c.engine().schedule_at(3 * sim::kSecond, [&] {
    c.storage_backend().write(0, blk, blk, [&] { ++done; });
  });
  // After the rebuild: a normal read again.
  c.engine().schedule_at(30 * sim::kSecond, [&] {
    c.storage_backend().read(0, blk, blk, [&] { ++done; });
  });
  c.run_until(60 * sim::kSecond);

  EXPECT_EQ(done, 4);
  const raid::RaidStats rs = c.storage_stats();
  EXPECT_EQ(rs.reads, 2u);
  EXPECT_EQ(rs.writes, 2u);
  EXPECT_EQ(rs.degraded_reads, 1u);
  EXPECT_EQ(rs.parity_updates, 2u);

  const fault::FaultStats& fs = c.faults().stats();
  EXPECT_EQ(fs.disk_fails, 1u);
  EXPECT_EQ(fs.disk_replacements, 1u);
  EXPECT_EQ(fs.rebuilds_started, 1u);
  EXPECT_EQ(fs.rebuilds_completed, 1u);
  EXPECT_FALSE(c.storage_degraded());  // whole again
  EXPECT_TRUE(c.node(2).alive());      // the node never went down
}

TEST(Fault, XfsManagerTakeoverUnderCrashMidWrite) {
  ClusterConfig cfg;
  cfg.workstations = 8;
  cfg.with_glunix = false;
  cfg.with_xfs = true;
  cfg.stripe_group_size = 0;
  Cluster c(cfg);

  // Block 3's manager is node 3 (identity hash ring at start).
  ASSERT_EQ(c.fs().manager_of(3), 3u);
  // The manager dies at 1 s; the write is issued 1 ms later, before the
  // failure detector (500 ms) has arranged the takeover.  The operation
  // spans the whole outage: first attempt times out against the dead
  // manager, retries ride out the takeover, the grant lands afterwards.
  int done = 0;
  int ok = 0;
  c.engine().schedule_at(1 * sim::kSecond,
                         [&] { c.faults().crash_node(3); });
  c.engine().schedule_at(1 * sim::kSecond + 1 * sim::kMillisecond, [&] {
    c.fs().write(1, 3, [&](bool s) {
      ++done;
      ok += s;
    });
  });
  c.run_until(30 * sim::kSecond);

  EXPECT_EQ(done, 1);
  EXPECT_EQ(ok, done);  // every completion reported success
  EXPECT_EQ(c.fs().stats().manager_takeovers, 1u);
  EXPECT_GE(c.fs().stats().op_retries, 1u);
  EXPECT_EQ(c.fs().stats().failed_ops, 0u);  // retried, not failed
  EXPECT_EQ(c.faults().stats().manager_takeovers, 1u);
  EXPECT_TRUE(c.faults().node_down(3));
  // Duty moved off the dead node.
  EXPECT_FALSE(c.fs().is_manager(3));
  EXPECT_NE(c.fs().manager_of(3), 3u);
}

// The XfsManagerTakeoverUnderCrashMidWrite rig, traced: the timeline shows
// the crash on the dead manager's row and the takeover on its successor's.
TEST(Fault, TraceShowsCrashAndManagerTakeoverOnTheirNodes) {
  exp::RunContext ctx;
  exp::ScopedRunContext scope(ctx);
  ctx.tracer.enable();
  ClusterConfig cfg;
  cfg.workstations = 8;
  cfg.with_glunix = false;
  cfg.with_xfs = true;
  cfg.stripe_group_size = 0;
  Cluster c(cfg);
  ASSERT_EQ(c.fs().manager_of(3), 3u);
  c.engine().schedule_at(1 * sim::kSecond,
                         [&] { c.faults().crash_node(3); });
  c.engine().schedule_at(1 * sim::kSecond + 1 * sim::kMillisecond,
                         [&] { c.fs().write(1, 3, [](bool) {}); });
  c.run_until(30 * sim::kSecond);
  ASSERT_EQ(ctx.tracer.dropped(), 0u);

  const auto crashes = instants(ctx.tracer, "fault", "crash");
  ASSERT_EQ(crashes.size(), 1u);
  EXPECT_EQ(crashes[0].first, 3u);
  EXPECT_DOUBLE_EQ(crashes[0].second, 1e6);  // 1 s, in microseconds

  const net::NodeId successor = c.fs().manager_of(3);
  ASSERT_NE(successor, 3u);
  const auto takeovers = instants(ctx.tracer, "xfs", "manager_takeover");
  ASSERT_EQ(takeovers.size(), 1u);
  EXPECT_EQ(takeovers[0].first, successor);
  EXPECT_GT(takeovers[0].second, crashes[0].second);
}

// GLUnix declares a crashed node down on its row once the heartbeats miss.
TEST(Fault, TraceShowsGlunixNodeDownAfterMissedHeartbeats) {
  exp::RunContext ctx;
  exp::ScopedRunContext scope(ctx);
  ctx.tracer.enable();
  ClusterConfig cfg;
  cfg.workstations = 8;
  cfg.fault_plan.crash_at(20 * sim::kSecond, 2);
  Cluster c(cfg);
  c.run_until(40 * sim::kSecond);
  ASSERT_EQ(ctx.tracer.dropped(), 0u);
  EXPECT_FALSE(c.glunix().node_believed_up(2));

  const auto downs = instants(ctx.tracer, "glunix", "node_down");
  ASSERT_EQ(downs.size(), 1u);
  EXPECT_EQ(downs[0].first, 2u);
  // Not before `kHeartbeatMisses` heartbeat intervals have gone unanswered.
  EXPECT_GE(downs[0].second,
            sim::to_us(20 * sim::kSecond + glunix::kHeartbeatMisses *
                                               cfg.glunix.heartbeat_interval));
}

TEST(Fault, GlunixGangSurvivesCrashRestartPair) {
  ClusterConfig cfg;
  cfg.workstations = 8;
  cfg.fault_plan.crash_at(20 * sim::kSecond, 2)
      .restart_at(50 * sim::kSecond, 2);
  Cluster c(cfg);

  bool completed = false;
  // Three ranks land on nodes 1,2,3 (lowest idle non-master machines).
  c.glunix().run_parallel(3, 30 * sim::kSecond, 8ull << 20,
                          [&] { completed = true; });
  c.run_until(400 * sim::kSecond);

  EXPECT_TRUE(completed);
  EXPECT_EQ(c.glunix().stats().gangs_completed, 1u);
  EXPECT_GE(c.glunix().stats().crash_restarts, 1u);
  const fault::FaultStats& fs = c.faults().stats();
  EXPECT_EQ(fs.node_crashes, 1u);
  EXPECT_EQ(fs.node_restarts, 1u);
  EXPECT_TRUE(c.node(2).alive());
  // Heartbeats re-admitted the rebooted machine.
  EXPECT_TRUE(c.glunix().node_believed_up(2));
}

TEST(Fault, LinkFlapDropsPacketsAndUpperLayersRecover) {
  ClusterConfig cfg;
  cfg.workstations = 4;
  cfg.with_glunix = false;
  cfg.with_xfs = true;
  cfg.stripe_group_size = 0;
  cfg.fault_plan.link_down_at(1 * sim::kSecond, 2)
      .link_up_at(3 * sim::kSecond, 2);
  Cluster c(cfg);

  int done = 0;
  // Issued while node 2's cable is pulled: every RPC attempt vanishes on
  // the wire until 3 s, then the xFS retry ladder pushes it through.
  c.engine().schedule_at(1 * sim::kSecond + 100 * sim::kMillisecond, [&] {
    c.fs().write(2, 1, [&](bool) { ++done; });
  });
  c.run_until(30 * sim::kSecond);

  EXPECT_EQ(done, 1);
  EXPECT_GT(c.network().stats().link_drops, 0u);
  EXPECT_GE(c.fs().stats().op_retries, 1u);
  EXPECT_EQ(c.faults().stats().link_downs, 1u);
  EXPECT_EQ(c.faults().stats().link_ups, 1u);
  EXPECT_TRUE(c.network().link_up(2));
}

// Everything a stochastic plan does is a pure function of the cluster
// seed: two identical runs produce identical failure schedules and
// identical subsystem outcomes.
TEST(Fault, StochasticPlanIsDeterministicAcrossRuns) {
  auto run_once = [] {
    ClusterConfig cfg;
    cfg.workstations = 10;
    cfg.with_xfs = true;
    cfg.stripe_group_size = 0;
    cfg.with_netram_registry = true;
    cfg.seed = 42;
    cfg.fault_policy.rebuild_bytes_per_member = 64 * 1024;
    cfg.fault_plan.with_node_churn(20 * sim::kSecond, 5 * sim::kSecond,
                                   {3, 4, 5})
        .with_link_flaps(15 * sim::kSecond, 1 * sim::kSecond, {6, 7})
        .with_owner_returns(10 * sim::kSecond, {8, 9})
        .until(60 * sim::kSecond);
    Cluster c(cfg);
    c.memory_registry().add_donor(c.node(8));
    c.memory_registry().add_donor(c.node(9));

    // A steady trickle of file traffic so failures have work to disturb.
    int completed = 0;
    for (int i = 0; i < 20; ++i) {
      c.engine().schedule_at(i * 2 * sim::kSecond, [&c, &completed, i] {
        c.fs().write(1, static_cast<xfs::BlockId>(i), [&completed](bool) {
          ++completed;
        });
      });
    }
    c.run_until(60 * sim::kSecond);

    const fault::FaultStats& f = c.faults().stats();
    const xfs::XfsStats& x = c.fs().stats();
    const net::NetworkStats& n = c.network().stats();
    return std::tuple(f.node_crashes, f.node_restarts, f.link_downs,
                      f.link_ups, f.owner_returns, f.manager_takeovers,
                      f.rebuilds_started, f.rebuilds_completed,
                      f.donor_revocations, x.op_retries, x.failed_ops,
                      x.manager_takeovers, n.packets_sent,
                      n.packets_delivered, n.link_drops, completed);
  };

  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  // The plan actually exercised something.
  EXPECT_GE(std::get<0>(a), 1u);  // node crashes
  EXPECT_GE(std::get<2>(a), 1u);  // link downs
  EXPECT_GE(std::get<4>(a), 1u);  // owner returns
}

// The schedule materialization itself (no cluster, no workload): same
// seed same draws, different seed different draws.
TEST(Fault, PlanMaterializationFollowsSeed) {
  auto schedule_for = [](std::uint64_t seed) {
    sim::Engine eng;
    std::vector<std::unique_ptr<os::Node>> nodes;
    std::vector<os::Node*> ptrs;
    for (net::NodeId i = 0; i < 4; ++i) {
      nodes.push_back(std::make_unique<os::Node>(eng, i, os::NodeParams{}));
      ptrs.push_back(nodes.back().get());
    }
    fault::FaultTargets t;
    t.engine = &eng;
    t.nodes = ptrs;
    fault::FaultInjector inj(std::move(t), seed);
    fault::FaultPlan plan;
    plan.with_node_churn(10 * sim::kSecond, 2 * sim::kSecond)
        .until(120 * sim::kSecond);
    inj.apply(plan);
    eng.run_until(120 * sim::kSecond);
    return std::pair(inj.stats().node_crashes, inj.stats().node_restarts);
  };
  EXPECT_EQ(schedule_for(7), schedule_for(7));
  EXPECT_NE(schedule_for(7), schedule_for(8));
}

}  // namespace
}  // namespace now
