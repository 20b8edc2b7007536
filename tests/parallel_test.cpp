// now::sim::ParallelEngine — partitioned intra-run execution.
//
// The contract under test (DESIGN.md §12): a partitioned run is
// *result-identical* to the serial engine at any thread count.  Covered
// here: the new Engine epoch primitives, the deterministic cross-lane
// merge order (golden), digest equality for threads {1, 2, 8} and for
// more lanes than cores on a partition-clean RPC workload, a fault
// landing in a non-zero partition, barrier workers parking and re-waking
// between runs, engine teardown with idle or parked workers, an
// all-to-all stress shaped for TSan, and the central server's refusal to
// run on a partitioned cluster.
#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/parallel_engine.hpp"
#include "xfs/central_server.hpp"

namespace now {
namespace {

// --- Engine epoch primitives ------------------------------------------

TEST(EngineEpoch, RunWhileBeforeStopsStrictlyAtBound) {
  sim::Engine e;
  std::vector<int> fired;
  e.schedule_at(10, [&] { fired.push_back(10); });
  e.schedule_at(19, [&] { fired.push_back(19); });
  e.schedule_at(20, [&] { fired.push_back(20); });  // == bound: stays
  e.schedule_at(25, [&] { fired.push_back(25); });
  EXPECT_EQ(e.run_while_before(20), 2u);
  EXPECT_EQ(fired, (std::vector<int>{10, 19}));
  // The clock holds at the last dispatched event; the bound is a filter,
  // not a time warp.
  EXPECT_EQ(e.now(), 19);
  sim::SimTime next = 0;
  ASSERT_TRUE(e.peek_next(&next));
  EXPECT_EQ(next, 20);
  EXPECT_EQ(e.run_while_before(30), 2u);
  EXPECT_EQ(fired, (std::vector<int>{10, 19, 20, 25}));
}

TEST(EngineEpoch, PeekNextAndAdvanceTo) {
  sim::Engine e;
  sim::SimTime next = 0;
  EXPECT_FALSE(e.peek_next(&next));  // empty queue
  e.advance_to(100);                 // legal: nothing to skip
  EXPECT_EQ(e.now(), 100);
  e.schedule_at(250, [] {});
  ASSERT_TRUE(e.peek_next(&next));
  EXPECT_EQ(next, 250);
  e.advance_to(250);  // up to (==) the pending event is allowed
  EXPECT_EQ(e.now(), 250);
  EXPECT_EQ(e.run(), 1u);
  e.advance_to(240);  // never backwards
  EXPECT_EQ(e.now(), 250);
}

// --- Deterministic cross-lane merge order (golden) --------------------

TEST(ParallelEngine, MergeOrderIsTimeSrcSeq) {
  sim::Engine global;
  sim::ParallelConfig pc;
  pc.threads = 4;
  pc.nodes = 8;      // nodes {0,1} lane 0, {2,3} lane 1, ...
  pc.lookahead = 10;
  sim::ParallelEngine pe(global, pc);
  ASSERT_EQ(pe.lanes(), 4u);
  EXPECT_EQ(pe.lane_of(0), 0u);
  EXPECT_EQ(pe.lane_of(7), 3u);
  EXPECT_FALSE(pe.same_lane(0, 7));
  EXPECT_TRUE(pe.same_lane(6, 7));

  // Posts arrive in scrambled wall order, from several source nodes, with
  // duplicate timestamps.  The drain must execute them sorted by
  // (order_time, src_node, dst_node, per-mailbox seq) — a key with no
  // lane id in it, so this golden sequence is what *any* thread count
  // produces.
  std::vector<std::string> order;
  const auto rec = [&order](std::string tag) {
    return [&order, tag] { order.push_back(tag); };
  };
  pe.post(5, 0, 30, rec("t30 src5"));
  pe.post(1, 6, 20, rec("t20 src1 dst6"));
  pe.post(6, 2, 10, rec("t10 src6"));
  pe.post(1, 2, 20, rec("t20 src1 dst2"));  // same (time, src): dst breaks it
  pe.post(1, 2, 20, rec("t20 src1 dst2 #1"));  // same dst too: seq breaks it
  pe.post(0, 7, 20, rec("t20 src0"));
  pe.post(7, 0, 5, rec("t5 src7"));
  pe.run();
  EXPECT_EQ(order, (std::vector<std::string>{
                       "t5 src7", "t10 src6", "t20 src0", "t20 src1 dst2",
                       "t20 src1 dst2 #1", "t20 src1 dst6", "t30 src5"}));
  EXPECT_EQ(pe.messages_posted(), 7u);
}

// --- A partition-clean workload shared by the digest tests ------------

struct EchoResult {
  std::vector<std::uint64_t> ops;       // per node
  std::vector<std::uint64_t> lat;       // per node, integer ticks
  std::uint64_t rpc_timeouts = 0;
  std::uint64_t crashes = 0;
  unsigned lanes = 0;
};

// Advances a cluster to the given simulated time.
using Runner = std::function<void(Cluster&, sim::SimTime)>;

// Every node RPC-echoes 256 B to a partner half the cluster away until
// the horizon.  All driver state is per-node and lane-confined, so the
// workload is partition-clean; with `plan`, the cluster machinery
// injects faults from the exclusive global lane.  `runner` replaces the
// single run_until to the end of the run.
EchoResult run_echo(std::uint32_t nodes, unsigned threads,
                    sim::SimTime horizon, fault::FaultPlan plan = {},
                    const Runner& runner = {}) {
  constexpr proto::MethodId kEcho = 9;
  ClusterConfig cfg;
  cfg.workstations = nodes;
  cfg.with_glunix = false;
  cfg.threads = threads;
  cfg.partitioning = Partitioning::kNodeLocal;
  cfg.fault_plan = std::move(plan);
  Cluster c(cfg);

  EchoResult r;
  r.ops.assign(nodes, 0);
  r.lat.assign(nodes, 0);
  for (std::uint32_t i = 0; i < nodes; ++i) {
    c.rpc().register_method(
        i, kEcho, [](net::NodeId, std::any req, proto::RpcLayer::ReplyFn f) {
          f(256, std::move(req));
        });
  }
  auto issue = std::make_shared<std::function<void(std::uint32_t)>>();
  *issue = [&c, &r, issue, nodes, horizon](std::uint32_t i) {
    sim::Engine& e = c.network().engine_for(i);
    if (e.now() >= horizon) return;
    const sim::SimTime t0 = e.now();
    const auto again = [&c, issue, i](sim::Duration think) {
      c.network().engine_for(i).schedule_in(think, [issue, i] {
        if (*issue) (*issue)(i);
      });
    };
    c.rpc().call(
        i, (i + nodes / 2) % nodes, kEcho, 256, std::any{},
        [&c, &r, i, t0, again](std::any) {
          ++r.ops[i];
          r.lat[i] += static_cast<std::uint64_t>(
              c.network().engine_for(i).now() - t0);
          again(20 * sim::kMicrosecond + (i % 7) * sim::kMicrosecond);
        },
        2 * sim::kMillisecond, [again] { again(50 * sim::kMicrosecond); });
  };
  for (std::uint32_t i = 0; i < nodes; ++i) {
    c.network().engine_for(i).schedule_at(
        static_cast<sim::SimTime>((i * 13) % 41) * sim::kMicrosecond,
        [issue, i] {
          if (*issue) (*issue)(i);
        });
  }
  const sim::SimTime end = horizon + 3 * sim::kMillisecond;
  if (runner) {
    runner(c, end);
  } else {
    c.run_until(end);
  }
  *issue = nullptr;
  r.rpc_timeouts = c.rpc().timeouts();
  r.crashes = c.faults().stats().node_crashes;
  r.lanes = c.effective_threads();
  return r;
}

TEST(ParallelCluster, DigestEqualAcrossThreadCounts) {
  const sim::SimTime horizon = 20 * sim::kMillisecond;
  const EchoResult serial = run_echo(16, 1, horizon);
  std::uint64_t total = 0;
  for (const std::uint64_t o : serial.ops) total += o;
  ASSERT_GT(total, 0u);
  for (const unsigned threads : {2u, 8u}) {
    const EchoResult par = run_echo(16, threads, horizon);
    EXPECT_EQ(par.ops, serial.ops) << "threads=" << threads;
    EXPECT_EQ(par.lat, serial.lat) << "threads=" << threads;
    EXPECT_EQ(par.rpc_timeouts, serial.rpc_timeouts);
  }
}

TEST(ParallelCluster, FaultInNonZeroPartitionMatchesSerial) {
  // Node 13 lives in the last of 4 lanes (16 nodes); crash it mid-run and
  // bring it back.  The injection runs on the exclusive global lane but
  // mutates partition-resident node state; its callers burn RPC timeouts
  // until the restart.  Everything must equal the serial run exactly.
  const sim::SimTime horizon = 20 * sim::kMillisecond;
  fault::FaultPlan plan;
  plan.crash_at(5 * sim::kMillisecond, 13)
      .restart_at(12 * sim::kMillisecond, 13);
  const EchoResult serial = run_echo(16, 1, horizon, plan);
  EXPECT_EQ(serial.crashes, 1u);
  EXPECT_GT(serial.rpc_timeouts, 0u);  // the crash was actually felt
  const EchoResult par = run_echo(16, 4, horizon, plan);
  EXPECT_EQ(par.ops, serial.ops);
  EXPECT_EQ(par.lat, serial.lat);
  EXPECT_EQ(par.rpc_timeouts, serial.rpc_timeouts);
  EXPECT_EQ(par.crashes, 1u);
}

TEST(ParallelCluster, MoreLanesThanCoresMatchesSerial) {
  // Twice as many lanes as cores (8 on a 4-core machine): lanes time-share
  // cores, so a barrier waiter must give up its core to the lane it waits
  // for instead of spinning through its time slice.
  const unsigned lanes =
      std::max(8u, 2 * std::thread::hardware_concurrency());
  const sim::SimTime horizon = 10 * sim::kMillisecond;
  const EchoResult serial = run_echo(2 * lanes, 1, horizon);
  const EchoResult par = run_echo(2 * lanes, lanes, horizon);
  EXPECT_EQ(par.lanes, lanes);
  EXPECT_EQ(par.ops, serial.ops);
  EXPECT_EQ(par.lat, serial.lat);
  EXPECT_EQ(par.rpc_timeouts, serial.rpc_timeouts);
}

// --- Barrier park / wake ----------------------------------------------

// Several times the barrier's bounded spin (a few thousand yields), so
// every waiting thread parks.
constexpr auto kParkNap = std::chrono::milliseconds(10);

TEST(ParallelCluster, WorkersParkAndRewakeBetweenSlices) {
  // Many 1 us run_until slices with a host sleep between them: after each
  // sleep the workers are parked in atomic::wait, and the next epoch must
  // wake every one of them.  Results equal the serial run.
  const sim::SimTime horizon = 2 * sim::kMillisecond;
  const EchoResult serial = run_echo(16, 1, horizon);
  std::vector<std::uint64_t> parks;
  const Runner sliced = [&parks](Cluster& c, sim::SimTime end) {
    sim::SimTime t = 0;
    for (int i = 0; i < 50; ++i) {
      t += sim::kMicrosecond;
      c.run_until(t);
      std::this_thread::sleep_for(kParkNap);
    }
    c.run_until(end);
    parks = c.parallel_engine()->profile().lane_parks;
  };
  const EchoResult par = run_echo(16, 4, horizon, {}, sliced);
  EXPECT_EQ(par.lanes, 4u);
  EXPECT_EQ(par.ops, serial.ops);
  EXPECT_EQ(par.lat, serial.lat);
  EXPECT_EQ(par.rpc_timeouts, serial.rpc_timeouts);
  ASSERT_EQ(parks.size(), 4u);
  for (unsigned lane = 1; lane < 4; ++lane) EXPECT_GT(parks[lane], 0u);
}

TEST(ParallelEngine, DriverParksWhileASlowLaneFinishes) {
  // Lane 1's only event outlasts the driver's spin budget, so the driver
  // (lane 0, idle) parks and must be woken by the finishing worker.
  sim::Engine global;
  sim::ParallelConfig pc;
  pc.threads = 2;
  pc.nodes = 2;
  pc.lookahead = 10;
  sim::ParallelEngine pe(global, pc);
  bool ran = false;
  pe.engine_for(1).schedule_at(0, [&ran] {
    std::this_thread::sleep_for(kParkNap);
    ran = true;
  });
  EXPECT_EQ(pe.run(), 1u);
  EXPECT_TRUE(ran);
  const sim::ParallelProfile p = pe.profile();
  EXPECT_EQ(p.lane_parks[0], 1u);
  EXPECT_GE(p.lane_wait_ns(0),
            static_cast<std::uint64_t>(
                std::chrono::nanoseconds(kParkNap).count()));
}

TEST(ParallelEngine, DestroysWithIdleOrParkedWorkers) {
  sim::ParallelConfig pc;
  pc.threads = 4;
  pc.nodes = 8;
  pc.lookahead = 10;
  {
    // Never run: workers may not even have reached their first wait.
    sim::Engine global;
    sim::ParallelEngine pe(global, pc);
    EXPECT_EQ(pe.lanes(), 4u);
  }
  sim::Engine global;
  auto pe = std::make_unique<sim::ParallelEngine>(global, pc);
  int fired = 0;
  for (std::uint32_t n = 0; n < 8; ++n) {
    pe->engine_for(n).schedule_at(5 * n, [&fired] { ++fired; });
  }
  EXPECT_EQ(pe->run(), 8u);
  EXPECT_EQ(fired, 8);
  EXPECT_GT(pe->epochs(), 0u);
  std::this_thread::sleep_for(kParkNap);
  pe.reset();  // joins workers parked in atomic::wait
}

TEST(ParallelEngine, ProfileAccountsForEveryEpoch) {
  sim::Engine global;
  sim::ParallelConfig pc;
  pc.threads = 2;
  pc.nodes = 4;
  pc.lookahead = 10;
  sim::ParallelEngine pe(global, pc);
  // Epochs [0, 10) and [28, 38) are the full lookahead wide; the global
  // event at 25 cuts the one starting at 20 to [20, 25).
  pe.engine_for(0).schedule_at(0, [] {});
  pe.engine_for(3).schedule_at(3, [] {});
  pe.engine_for(0).schedule_at(20, [] {});
  pe.engine_for(1).schedule_at(28, [] {});
  global.schedule_at(25, [] {});
  EXPECT_EQ(pe.run(), 5u);
  EXPECT_EQ(pe.epochs(), 3u);
  const sim::ParallelProfile p = pe.profile();
  ASSERT_EQ(p.lane_busy_ns.size(), 2u);
  EXPECT_EQ(p.width_log2[3], 2u);  // width 10: [8, 16)
  EXPECT_EQ(p.width_log2[2], 1u);  // width 5:  [4, 8)
  std::uint64_t counted = 0;
  for (const std::uint64_t n : p.width_log2) counted += n;
  EXPECT_EQ(counted, pe.epochs());
  for (unsigned lane = 0; lane < 2; ++lane) {
    EXPECT_GT(p.lane_busy_ns[lane], 0u);  // both lanes dispatched events
    EXPECT_LE(p.lane_busy_ns[lane], p.epoch_ns);
    EXPECT_EQ(p.lane_busy_ns[lane] + p.lane_wait_ns(lane), p.epoch_ns);
  }
  EXPECT_GT(p.epoch_ns, 0u);
}

// --- All-to-all stress (the TSan target) ------------------------------

TEST(ParallelCluster, AllToAllStress) {
  // Every node fires at every other node round-robin with minimal think
  // time: all P^2 mailboxes stay hot and every lane pair exercises the
  // post/drain path concurrently.  Run under -fsanitize=thread in CI.
  constexpr proto::MethodId kEcho = 9;
  constexpr std::uint32_t kNodes = 24;
  ClusterConfig cfg;
  cfg.workstations = kNodes;
  cfg.with_glunix = false;
  cfg.threads = 8;
  cfg.partitioning = Partitioning::kNodeLocal;
  Cluster c(cfg);
  ASSERT_GT(c.effective_threads(), 1u);

  std::vector<std::uint64_t> ops(kNodes, 0);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    c.rpc().register_method(
        i, kEcho, [](net::NodeId, std::any req, proto::RpcLayer::ReplyFn f) {
          f(64, std::move(req));
        });
  }
  auto issue = std::make_shared<std::function<void(std::uint32_t)>>();
  *issue = [&c, &ops, issue](std::uint32_t i) {
    if (c.network().engine_for(i).now() >= 4 * sim::kMillisecond) return;
    const std::uint32_t dst =
        (i + 1 + static_cast<std::uint32_t>(ops[i] % (kNodes - 1))) % kNodes;
    c.rpc().call(i, dst, kEcho, 64, std::any{}, [&ops, issue, i](std::any) {
      ++ops[i];
      if (*issue) (*issue)(i);
    });
  };
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    c.network().engine_for(i).schedule_at(0, [issue, i] {
      if (*issue) (*issue)(i);
    });
  }
  c.run_until(6 * sim::kMillisecond);
  *issue = nullptr;
  ASSERT_NE(c.parallel_engine(), nullptr);
  EXPECT_GT(c.parallel_engine()->messages_posted(), 0u);
  for (std::uint32_t i = 0; i < kNodes; ++i) EXPECT_GT(ops[i], 0u);
}

// --- Serial-only services ---------------------------------------------

// CentralServerFs counts every client's operations in one unlocked stats
// block, so it must refuse a cluster whose clients run on other lanes
// than the server.  The check is a throw, not an assert, so it holds in
// Release builds too.
TEST(ParallelCluster, CentralServerRefusesAPartitionedCluster) {
  const auto build = [](unsigned threads) {
    ClusterConfig cfg;
    cfg.workstations = 4;
    cfg.fabric = Fabric::kMyrinet;
    cfg.with_glunix = false;
    cfg.threads = threads;
    cfg.partitioning = Partitioning::kNodeLocal;
    Cluster c(cfg);
    std::vector<os::Node*> clients{&c.node(1), &c.node(2), &c.node(3)};
    xfs::CentralServerFs fs(c.rpc(), c.node(0), clients, {});
  };
  EXPECT_NO_THROW(build(1));
  try {
    build(2);
    ADD_FAILURE() << "a 2-lane cluster was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("client node 2"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace now
