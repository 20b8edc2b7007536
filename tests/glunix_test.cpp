// Tests for GLUnix: migration, coscheduling, SPMD apps, the overlay study,
// and the daemon/master layer.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "glunix/coschedule.hpp"
#include "glunix/glunix.hpp"
#include "glunix/migration.hpp"
#include "glunix/overlay_sim.hpp"
#include "glunix/spmd.hpp"
#include "net/hierarchical.hpp"
#include "net/presets.hpp"
#include "proto/am.hpp"
#include "proto/nic_mux.hpp"
#include "proto/rpc.hpp"
#include "sim/engine.hpp"

namespace now::glunix {
namespace {

using namespace now::sim::literals;

TEST(Migration, SixtyFourMegabytesUnderFourSeconds) {
  // The paper: "with ATM bandwidth and a parallel file system, 64 Mbytes
  // of DRAM can be restored in under 4 seconds."
  MigrationCostModel m;
  EXPECT_LT(sim::to_sec(m.restore_time(64ull << 20)), 4.0);
  EXPECT_GT(sim::to_sec(m.restore_time(64ull << 20)), 1.0);
}

TEST(Migration, SlowerOfNetworkAndPfsGoverns) {
  MigrationParams p;
  p.network_mbytes_per_sec = 100.0;
  p.pfs_mbytes_per_sec = 10.0;
  MigrationCostModel m(p);
  EXPECT_DOUBLE_EQ(m.effective_mbytes_per_sec(), 10.0);
}

struct Rig {
  explicit Rig(int n, std::uint32_t window = 32) {
    network = std::make_unique<net::HierarchicalNetwork>(engine,
                                                         net::myrinet());
    mux = std::make_unique<proto::NicMux>(*network);
    proto::AmParams ap;
    ap.costs = proto::am_cm5();
    ap.window = window;
    am = std::make_unique<proto::AmLayer>(*mux, ap);
    rpc = std::make_unique<proto::RpcLayer>(*am);
    for (int i = 0; i < n; ++i) {
      os::NodeParams p;
      // Distinct seeds + quantum jitter keep the nodes' local schedules
      // from staying accidentally phase-locked (see CpuParams).
      p.cpu.quantum_jitter = 0.25;
      p.cpu.seed = static_cast<std::uint64_t>(i) + 1;
      nodes.push_back(std::make_unique<os::Node>(
          engine, static_cast<net::NodeId>(i), p));
      mux->attach_node(*nodes.back());
      rpc->bind(*nodes.back());
    }
  }
  std::vector<os::Node*> node_ptrs() {
    std::vector<os::Node*> v;
    for (auto& n : nodes) v.push_back(n.get());
    return v;
  }
  sim::Engine engine;
  std::unique_ptr<net::HierarchicalNetwork> network;
  std::unique_ptr<proto::NicMux> mux;
  std::unique_ptr<proto::AmLayer> am;
  std::unique_ptr<proto::RpcLayer> rpc;
  std::vector<std::unique_ptr<os::Node>> nodes;
};

TEST(CoschedulerTest, GangsAlternateInSlots) {
  sim::Engine eng;
  os::CpuParams cp;
  cp.context_switch = 0;
  os::Cpu cpu(eng, cp);
  sim::SimTime a_done = -1, b_done = -1;
  std::vector<os::ProcessId> pa(1), pb(1);
  pa[0] = cpu.spawn("a", os::SchedClass::kBatch, [&] {
    cpu.compute(pa[0], 300_ms, [&] {
      a_done = eng.now();
      cpu.exit(pa[0]);
    });
  });
  pb[0] = cpu.spawn("b", os::SchedClass::kBatch, [&] {
    cpu.compute(pb[0], 300_ms, [&] {
      b_done = eng.now();
      cpu.exit(pb[0]);
    });
  });
  Coscheduler cs(eng, /*slot=*/100_ms);
  cs.add_gang({{&cpu, pa[0]}});
  cs.add_gang({{&cpu, pb[0]}});
  cs.start();
  eng.run_until(5 * sim::kSecond);
  // Each gang gets every other slot: both finish near 600 ms.
  EXPECT_GT(a_done, 0);
  EXPECT_GT(b_done, 0);
  EXPECT_NEAR(sim::to_ms(a_done), 500, 110);
  EXPECT_NEAR(sim::to_ms(b_done), 600, 110);
  cs.stop();
}

SpmdParams quick_params(CommPattern pattern) {
  SpmdParams p;
  p.pattern = pattern;
  p.iterations = 10;
  p.compute_per_iteration = 5_ms;
  p.msg_bytes = 512;
  p.burst = 8;
  p.rpcs_per_iteration = 4;
  return p;
}

TEST(Spmd, EachPatternCompletesSolo) {
  for (const CommPattern pattern :
       {CommPattern::kComputeOnly, CommPattern::kRandomSmall,
        CommPattern::kColumn, CommPattern::kEm3d, CommPattern::kConnect}) {
    Rig rig(4);
    sim::Duration elapsed = 0;
    SpmdApp app(*rig.am, rig.node_ptrs(), quick_params(pattern),
                [&](sim::Duration d) { elapsed = d; });
    app.start();
    rig.engine.run();
    ASSERT_TRUE(app.finished()) << pattern_name(pattern);
    // At least the compute time, at most a generous envelope.
    EXPECT_GE(elapsed, 10 * 5_ms) << pattern_name(pattern);
    EXPECT_LT(sim::to_sec(elapsed), 5.0) << pattern_name(pattern);
  }
}

// Runs `pattern` against one compute-only competitor, local scheduling vs
// coscheduling, and returns time_local / time_cosched.  Apps must span
// many 100 ms quanta or the local schedule degenerates to solo execution.
double figure4_ratio(CommPattern pattern) {
  const int kNodes = 4;
  auto run = [&](bool coscheduled) {
    Rig rig(kNodes, /*window=*/64);
    sim::Duration app_time = 0;
    SpmdParams ap = quick_params(pattern);
    ap.iterations = 40;
    ap.compute_per_iteration = 15_ms;
    // kColumn: a fixed partner at this burst rate overruns 64 credits per
    // descheduling epoch; kRandomSmall spread over 3 peers stays under it.
    ap.burst = 24;
    SpmdApp app(*rig.am, rig.node_ptrs(), ap,
                [&](sim::Duration d) { app_time = d; });
    SpmdParams comp = quick_params(CommPattern::kComputeOnly);
    comp.iterations = 100'000;  // competitor outlives the measured app
    SpmdApp filler(*rig.am, rig.node_ptrs(), comp, nullptr);
    app.start();
    filler.start();
    std::unique_ptr<Coscheduler> cs;
    if (coscheduled) {
      cs = std::make_unique<Coscheduler>(rig.engine, /*slot=*/100_ms);
      cs->add_gang(app.gang());
      cs->add_gang(filler.gang());
      cs->start();
    }
    rig.engine.run_until(30 * 60 * sim::kSecond);
    EXPECT_TRUE(app.finished()) << pattern_name(pattern);
    return app_time;
  };
  const double local = sim::to_sec(run(false));
  const double cosched = sim::to_sec(run(true));
  return local / cosched;
}

TEST(Spmd, Figure4ConnectSuffersMostUnderLocalScheduling) {
  const double r_connect = figure4_ratio(CommPattern::kConnect);
  const double r_random = figure4_ratio(CommPattern::kRandomSmall);
  // The paper's Figure 4 ordering: request/reply programs collapse under
  // local scheduling; well-buffered one-way traffic barely notices.
  EXPECT_GT(r_connect, 1.5);
  EXPECT_LT(r_random, 1.4);
  EXPECT_GT(r_connect, r_random);
}

TEST(Spmd, Figure4Em3dSuffersAtSynchronizationPoints) {
  const double r_em3d = figure4_ratio(CommPattern::kEm3d);
  EXPECT_GT(r_em3d, 1.8);
}

TEST(Spmd, Figure4ColumnOverflowsDestinationBuffers) {
  // "Column runs slowly even though it communicates infrequently, because
  // it overflows the buffers on the destination."
  const double r_column = figure4_ratio(CommPattern::kColumn);
  const double r_random = figure4_ratio(CommPattern::kRandomSmall);
  EXPECT_GT(r_column, 1.25);
  EXPECT_GT(r_column, r_random);
}

TEST(Overlay, DedicatedMppFcfsBaseline) {
  std::vector<trace::ParallelJob> jobs(2);
  jobs[0] = {0, 32, 100 * sim::kSecond, false};
  jobs[1] = {10 * sim::kSecond, 32, 50 * sim::kSecond, false};
  const auto resp = dedicated_mpp_response_times(jobs, 32);
  EXPECT_EQ(sim::to_sec(resp[0]), 100);
  // Second job waits for the first to free the partition.
  EXPECT_EQ(sim::to_sec(resp[1]), (100 - 10) + 50);
}

TEST(Overlay, NowWithAmpleIdleMachinesMatchesDedicatedMpp) {
  trace::UsageParams up;
  up.workstations = 64;
  up.seed = 21;
  const trace::UsageTrace usage(up);
  trace::ParallelJobParams jp;
  jp.duration = 8 * sim::kHour;
  jp.seed = 4;
  const auto jobs = generate_parallel_jobs(jp);
  OverlayParams op;
  op.workstations = 64;
  const auto r = simulate_overlay(usage, jobs, op);
  EXPECT_EQ(r.jobs_completed, jobs.size());
  // Figure 3's right edge: ~10 % slower than the dedicated MPP.
  EXPECT_LT(r.workload_slowdown, 1.6);
  EXPECT_GT(r.workload_slowdown, 0.9);
}

TEST(Overlay, SlowdownShrinksWithMoreWorkstations) {
  trace::UsageParams up;
  up.workstations = 96;
  up.seed = 22;
  const trace::UsageTrace usage(up);
  trace::ParallelJobParams jp;
  jp.duration = 8 * sim::kHour;
  jp.seed = 5;
  const auto jobs = generate_parallel_jobs(jp);

  OverlayParams small;
  small.workstations = 40;
  OverlayParams big;
  big.workstations = 96;
  const auto r_small = simulate_overlay(usage, jobs, small);
  const auto r_big = simulate_overlay(usage, jobs, big);
  EXPECT_EQ(r_big.jobs_completed, jobs.size());
  // More machines, less queueing and eviction pressure.
  EXPECT_LE(r_big.workload_slowdown, r_small.workload_slowdown * 1.05);
}

TEST(GlunixLayer, RemoteJobRunsOnIdleNodeAndCompletes) {
  Rig rig(4);
  Glunix glu(*rig.rpc, rig.node_ptrs(), GlunixParams{});
  glu.start();
  net::NodeId where = net::kInvalidNode;
  glu.run_remote(10 * sim::kSecond, 8ull << 20,
                 [&](net::NodeId n) { where = n; });
  rig.engine.run_until(60 * sim::kSecond);
  EXPECT_NE(where, net::kInvalidNode);
  EXPECT_EQ(glu.stats().completed, 1u);
  EXPECT_EQ(glu.stats().migrations, 0u);
}

TEST(GlunixLayer, OwnerReturnEvictsGuestWhichStillCompletes) {
  Rig rig(4);
  GlunixParams gp;
  Glunix glu(*rig.rpc, rig.node_ptrs(), gp);
  glu.start();
  net::NodeId finished_on = net::kInvalidNode;
  glu.run_remote(30 * sim::kSecond, 8ull << 20,
                 [&](net::NodeId n) { finished_on = n; });
  // The owner of every machine except node 3 starts typing at t=10s and
  // keeps typing.
  for (sim::SimTime t = 10 * sim::kSecond; t < 120 * sim::kSecond;
       t += 1 * sim::kSecond) {
    rig.engine.schedule_at(t, [&rig] {
      for (int i = 0; i < 3; ++i) rig.nodes[i]->user_activity();
    });
  }
  rig.engine.run_until(300 * sim::kSecond);
  EXPECT_EQ(glu.stats().completed, 1u);
  if (glu.stats().migrations > 0) {
    EXPECT_EQ(finished_on, 3u);  // ended up on the only idle machine
  }
}

TEST(GlunixLayer, HeartbeatsDetectCrashedNode) {
  Rig rig(4);
  Glunix glu(*rig.rpc, rig.node_ptrs(), GlunixParams{});
  glu.start();
  net::NodeId down = net::kInvalidNode;
  glu.set_node_down_handler([&](net::NodeId n) { down = n; });
  rig.engine.schedule_at(5 * sim::kSecond, [&] { rig.nodes[2]->crash(); });
  rig.engine.run_until(30 * sim::kSecond);
  EXPECT_EQ(down, 2u);
  EXPECT_FALSE(glu.node_believed_up(2));
  EXPECT_TRUE(glu.node_believed_up(1));
}

TEST(GlunixLayer, GuestSurvivesNodeCrashViaCheckpointRestart) {
  Rig rig(4);
  GlunixParams gp;
  gp.checkpoint_interval = 5 * sim::kSecond;
  Glunix glu(*rig.rpc, rig.node_ptrs(), gp);
  glu.start();
  bool completed = false;
  net::NodeId first_home = net::kInvalidNode;
  glu.run_remote(30 * sim::kSecond, 8ull << 20,
                 [&](net::NodeId) { completed = true; });
  // Find where it landed, then crash that node mid-run.
  rig.engine.schedule_at(10 * sim::kSecond, [&] {
    for (int i = 0; i < 4; ++i) {
      if (!rig.nodes[i]->cpu().idle()) {
        first_home = static_cast<net::NodeId>(i);
        rig.nodes[i]->crash();
        return;
      }
    }
  });
  rig.engine.run_until(600 * sim::kSecond);
  EXPECT_NE(first_home, net::kInvalidNode);
  EXPECT_TRUE(completed);
  EXPECT_GE(glu.stats().crash_restarts, 1u);
}

TEST(GlunixLayer, RebootedNodeRejoinsThePool) {
  Rig rig(3);
  Glunix glu(*rig.rpc, rig.node_ptrs(), GlunixParams{});
  glu.start();
  net::NodeId came_back = net::kInvalidNode;
  glu.set_node_up_handler([&](net::NodeId n) { came_back = n; });
  rig.engine.schedule_at(5 * sim::kSecond, [&] { rig.nodes[2]->crash(); });
  rig.engine.run_until(30 * sim::kSecond);
  EXPECT_FALSE(glu.node_believed_up(2));
  // Hot-swap: the node reboots; heartbeats notice and readmit it.
  rig.engine.schedule_at(31 * sim::kSecond, [&] { rig.nodes[2]->reboot(); });
  rig.engine.run_until(60 * sim::kSecond);
  EXPECT_TRUE(glu.node_believed_up(2));
  EXPECT_EQ(came_back, 2u);
  // And it can host guests again.
  bool done = false;
  glu.run_remote(5 * sim::kSecond, 1 << 20, [&](net::NodeId) {
    done = true;
  });
  rig.engine.run_until(200 * sim::kSecond);
  EXPECT_TRUE(done);
}

TEST(GlunixLayer, EvictionBudgetProtectsDisturbedOwners) {
  // Two hostable machines; machine 1's owner keeps coming back.  After the
  // per-window budget is exhausted, GLUnix stops recruiting machine 1 even
  // when it looks idle.
  Rig rig(3);  // node 0 = master, nodes 1-2 hostable
  GlunixParams gp;
  gp.max_evictions_per_window = 2;
  Glunix glu(*rig.rpc, rig.node_ptrs(), gp);
  glu.start();
  // Node 2's owner types continuously: only node 1 is ever recruitable.
  for (sim::SimTime t = 0; t < 1800 * sim::kSecond; t += sim::kSecond) {
    rig.engine.schedule_at(t, [&rig] { rig.nodes[2]->user_activity(); });
  }
  // Node 1's owner shows up briefly every 3 minutes: each visit evicts the
  // guest, burning budget.
  for (int visit = 0; visit < 6; ++visit) {
    rig.engine.schedule_at((60 + visit * 180) * sim::kSecond, [&rig] {
      rig.nodes[1]->user_activity();
    });
  }
  int completed = 0;
  glu.run_remote(3600 * sim::kSecond, 1 << 20,
                 [&](net::NodeId) { ++completed; });
  rig.engine.run_until(1200 * sim::kSecond);
  // Budget 2: at most 2 owner disturbances, then the machine is off-limits
  // and the job waits (it cannot finish: nowhere left to run).
  EXPECT_LE(glu.stats().migrations, 2u);
  EXPECT_EQ(completed, 0);
  EXPECT_EQ(glu.idle_node_count() != 0, true);  // idle but protected
}

TEST(GlunixLayer, MasterCanLiveOnAnyNode) {
  Rig rig(4);
  Glunix glu(*rig.rpc, rig.node_ptrs(), GlunixParams{}, /*master_index=*/2);
  glu.start();
  net::NodeId where = net::kInvalidNode;
  glu.run_remote(5 * sim::kSecond, 1 << 20,
                 [&](net::NodeId n) { where = n; });
  rig.engine.run_until(60 * sim::kSecond);
  EXPECT_NE(where, net::kInvalidNode);
  EXPECT_NE(where, 2u);  // the control node hosts no guests
}

TEST(GangJobs, RunsWhenEnoughMachinesAndCompletes) {
  Rig rig(6);  // master + 5 hostable
  Glunix glu(*rig.rpc, rig.node_ptrs(), GlunixParams{});
  glu.start();
  bool done = false;
  glu.run_parallel(4, 30 * sim::kSecond, 8ull << 20, [&] { done = true; });
  rig.engine.run_until(120 * sim::kSecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(glu.stats().gangs_completed, 1u);
  EXPECT_EQ(glu.stats().gang_pauses, 0u);
}

TEST(GangJobs, QueuesUntilWidthMachinesExist) {
  Rig rig(4);  // master + 3 hostable < width 4
  Glunix glu(*rig.rpc, rig.node_ptrs(), GlunixParams{});
  glu.start();
  bool done = false;
  glu.run_parallel(4, 10 * sim::kSecond, 1 << 20, [&] { done = true; });
  rig.engine.run_until(300 * sim::kSecond);
  EXPECT_FALSE(done);  // forever 3 < 4 machines
  EXPECT_EQ(glu.stats().gangs_completed, 0u);
}

TEST(GangJobs, OwnerReturnPausesGangAndMigratesOneRank) {
  Rig rig(6);  // master + 5 hostable; gang of 3 leaves spares
  Glunix glu(*rig.rpc, rig.node_ptrs(), GlunixParams{});
  glu.start();
  sim::SimTime done_at = -1;
  glu.run_parallel(3, 60 * sim::kSecond, 16ull << 20,
                   [&] { done_at = rig.engine.now(); });
  // At t=20s an owner returns to whichever machine hosts a rank, types for
  // a minute, then leaves.
  rig.engine.schedule_at(20 * sim::kSecond, [&] {
    for (std::uint32_t i = 1; i < 6; ++i) {
      if (!rig.nodes[i]->cpu().idle()) {
        for (int k = 0; k < 60; ++k) {
          rig.engine.schedule_in(k * sim::kSecond,
                                 [&rig, i] { rig.nodes[i]->user_activity(); });
        }
        return;
      }
    }
  });
  rig.engine.run_until(20 * 60 * sim::kSecond);
  EXPECT_GT(done_at, 0);
  EXPECT_GE(glu.stats().gang_pauses, 1u);
  EXPECT_GE(glu.stats().migrations, 1u);
  // The pause + 32 MB round trip costs the gang time: completion is later
  // than the undisturbed 60 s but far from double.
  EXPECT_GT(done_at, 60 * sim::kSecond);
  EXPECT_LT(done_at, 180 * sim::kSecond);
}

TEST(GangJobs, RankCrashRestartsElsewhereAndGangFinishes) {
  Rig rig(6);
  Glunix glu(*rig.rpc, rig.node_ptrs(), GlunixParams{});
  glu.start();
  bool done = false;
  glu.run_parallel(3, 60 * sim::kSecond, 8ull << 20, [&] { done = true; });
  // Crash one busy machine mid-run.
  rig.engine.schedule_at(15 * sim::kSecond, [&] {
    for (std::uint32_t i = 1; i < 6; ++i) {
      if (!rig.nodes[i]->cpu().idle()) {
        rig.nodes[i]->crash();
        return;
      }
    }
  });
  rig.engine.run_until(20 * 60 * sim::kSecond);
  EXPECT_TRUE(done);
  EXPECT_GE(glu.stats().crash_restarts, 1u);
  EXPECT_EQ(glu.stats().gangs_completed, 1u);
}

TEST(GlunixLayer, JobsQueueWhenNothingIsIdle) {
  Rig rig(2);
  Glunix glu(*rig.rpc, rig.node_ptrs(), GlunixParams{});
  glu.start();
  // Both owners type continuously.
  for (sim::SimTime t = 0; t < 100 * sim::kSecond; t += sim::kSecond) {
    rig.engine.schedule_at(t, [&rig] {
      rig.nodes[0]->user_activity();
      rig.nodes[1]->user_activity();
    });
  }
  int done = 0;
  glu.run_remote(5 * sim::kSecond, 1 << 20, [&](net::NodeId) { ++done; });
  rig.engine.run_until(90 * sim::kSecond);
  EXPECT_EQ(done, 0);  // nowhere to run yet
  // Owners leave; after the one-minute window the job runs.
  rig.engine.run_until(300 * sim::kSecond);
  EXPECT_EQ(done, 1);
}

}  // namespace
}  // namespace now::glunix
