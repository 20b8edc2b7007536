// The Berkeley prototype, end to end: "Our 100-node NOW prototype aims to
// demonstrate practical solutions to these challenges."
//
// One hundred workstations on switched ATM, running everything this
// library implements at once for a simulated half hour:
//   - interactive owners coming and going (synthetic usage trace),
//   - a batch queue on GLUnix, migrating off machines whose owners return,
//   - a gang-scheduled parallel application on Active Messages,
//   - xFS file traffic over the building-wide software RAID,
//   - a workstation crash (detected by heartbeats, xFS manager takeover,
//     RAID degraded mode) and its reboot back into the pool.
//
//   $ ./examples/berkeley_now_100
#include <cstdio>
#include <functional>
#include <memory>

#include "core/cluster.hpp"
#include "glunix/coschedule.hpp"
#include "glunix/spmd.hpp"
#include "sim/random.hpp"
#include "trace/usage_trace.hpp"

int main() {
  using namespace now;
  constexpr std::uint32_t kNodes = 100;
  constexpr sim::Duration kDay = 30 * sim::kMinute;

  ClusterConfig cfg;
  cfg.workstations = kNodes;
  cfg.with_xfs = true;
  cfg.xfs.client_cache_blocks = 128;
  cfg.xfs.segment_blocks = 28;  // four full rows of an 8-member group
  cfg.glunix.poll_interval = 4 * sim::kSecond;
  cfg.glunix.heartbeat_interval = 2 * sim::kSecond;
  Cluster c(cfg);

  std::printf("Berkeley NOW prototype: %u workstations, switched ATM, "
              "GLUnix + xFS + AM\n\n",
              c.size());

  // --- Interactive owners ---------------------------------------------
  trace::UsageParams up;
  up.workstations = kNodes;
  up.duration = kDay;
  up.owner_present_probability = 0.5;
  up.seed = 31;
  const trace::UsageTrace usage(up);
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    for (const auto& b : usage.intervals(n)) {
      for (sim::SimTime t = b.begin; t < b.end; t += 2 * sim::kSecond) {
        c.engine().schedule_at(t, [&c, n] { c.node(n).user_activity(); });
      }
    }
  }

  // --- Batch queue ------------------------------------------------------
  sim::Pcg32 rng(13, 0x62657273);
  int batch_done = 0, batch_submitted = 0;
  for (sim::SimTime t = 10 * sim::kSecond; t < kDay;
       t += sim::from_sec(rng.uniform(20, 60))) {
    const auto work = sim::from_sec(rng.uniform(30, 300));
    ++batch_submitted;
    c.engine().schedule_at(t, [&c, &batch_done, work] {
      c.glunix().run_remote(work, 16ull << 20,
                            [&batch_done](net::NodeId) { ++batch_done; });
    });
  }

  // --- A coscheduled parallel application ------------------------------
  glunix::SpmdParams sp;
  sp.pattern = glunix::CommPattern::kEm3d;
  sp.iterations = 200;
  sp.compute_per_iteration = 25 * sim::kMillisecond;
  sp.msg_bytes = 2048;
  std::vector<os::Node*> gang_nodes;
  for (std::uint32_t i = 60; i < 92; ++i) {  // a 32-node partition
    gang_nodes.push_back(&c.node(i));
  }
  sim::Duration app_elapsed = 0;
  glunix::SpmdApp app(c.am(), gang_nodes, sp,
                      [&](sim::Duration d) { app_elapsed = d; });
  app.start();

  // --- xFS traffic from everywhere --------------------------------------
  auto fs_rng = std::make_shared<sim::Pcg32>(17);
  auto fs_ops = std::make_shared<int>(0);
  auto issue = std::make_shared<std::function<void(int)>>();
  *issue = [&c, fs_rng, fs_ops, issue](int remaining) {
    if (remaining == 0) {
      *issue = nullptr;
      return;
    }
    auto node = fs_rng->next_below(kNodes);
    if (!c.node(node).alive()) node = (node + 1) % kNodes;
    const xfs::BlockId b = fs_rng->next_below(20'000);
    auto cont = [&c, fs_ops, issue, remaining](bool) {
      ++*fs_ops;
      c.engine().schedule_in(30 * sim::kMillisecond,
                             [issue, remaining] {
                               if (*issue) (*issue)(remaining - 1);
                             });
    };
    if (fs_rng->bernoulli(0.3)) {
      c.fs().write(node, b, cont);
    } else {
      c.fs().read(node, b, cont);
    }
  };
  (*issue)(20'000);

  // --- Disaster ---------------------------------------------------------
  net::NodeId down = net::kInvalidNode, back = net::kInvalidNode;
  c.glunix().set_node_down_handler([&](net::NodeId n) { down = n; });
  c.glunix().set_node_up_handler([&](net::NodeId n) { back = n; });
  c.engine().schedule_at(8 * sim::kMinute, [&] {
    std::printf("[%5.1f min] workstation 23 crashes\n",
                sim::to_sec(c.engine().now()) / 60);
    c.crash_node(23);
    c.fs().manager_takeover(23, 24, [&] {
      std::printf("[%5.1f min] workstation 24 took over 23's xFS manager "
                  "duty\n",
                  sim::to_sec(c.engine().now()) / 60);
    });
  });
  c.engine().schedule_at(16 * sim::kMinute, [&] {
    std::printf("[%5.1f min] workstation 23 reboots\n",
                sim::to_sec(c.engine().now()) / 60);
    c.node(23).reboot();
  });

  // --- Run the half hour -------------------------------------------------
  for (int m = 5; m <= 30; m += 5) {
    c.engine().schedule_at(m * sim::kMinute, [&c, &batch_done, m] {
      std::printf("[%5d min] idle: %2zu   batch done: %3d   "
                  "migrations: %llu\n",
                  m, c.glunix().idle_node_count(), batch_done,
                  static_cast<unsigned long long>(
                      c.glunix().stats().migrations));
    });
  }
  c.run_until(kDay + 5 * sim::kMinute);

  // End of day: commit everyone's write-behind state to the log.
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    if (c.node(n).alive()) c.fs().sync(n, [] {});
  }
  c.run_until(kDay + 10 * sim::kMinute);

  std::printf("\n--- the half hour, in numbers ---\n");
  std::printf("batch jobs: %d submitted, %d completed, %llu migrations, "
              "%llu crash restarts\n",
              batch_submitted, batch_done,
              static_cast<unsigned long long>(c.glunix().stats().migrations),
              static_cast<unsigned long long>(
                  c.glunix().stats().crash_restarts));
  std::printf("parallel app (32 ranks): %s in %.0f s\n",
              app.finished() ? "finished" : "still running",
              sim::to_sec(app_elapsed));
  const auto& fsst = c.fs().stats();
  std::printf("xFS: %d ops; %llu cooperative peer fetches, %llu log reads, "
              "%llu segments flushed\n",
              *fs_ops,
              static_cast<unsigned long long>(fsst.peer_fetches),
              static_cast<unsigned long long>(fsst.log_reads),
              static_cast<unsigned long long>(fsst.segments_flushed));
  std::printf("RAID: %llu full-stripe writes, degraded mode: %s\n",
              static_cast<unsigned long long>(
                  c.storage_stats().full_stripe_writes),
              c.storage_degraded() ? "yes (one member down)" : "no");
  std::printf("failures: node %u down, node %u rejoined, xFS invariant "
              "holds: %s\n",
              down, back,
              c.fs().coherence_invariant_holds() ? "yes" : "NO");
  std::printf("\none building, one system. nobody bought a supercomputer.\n");
  return 0;
}
