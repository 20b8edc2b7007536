// Breaking a NOW on purpose: the fault-injection subsystem end to end.
//
// A 16-workstation cluster runs GLUnix gangs, xFS traffic over stripe
// groups, and a network-RAM donor pool while a FaultPlan tears pieces out
// of it: a scripted crash/restart pair, a disk failure and replacement, a
// pulled network cable, returning owners, plus seeded stochastic churn on
// top.  Every injection drives the real reaction paths — manager
// takeover, degraded RAID reads, background rebuild, gang displacement,
// donor revocation — and every one of them lands in the metrics registry
// and the trace.
//
//   $ ./examples/break_now
//   $ ls break_now.trace.json   # open at ui.perfetto.dev
#include <cstdio>
#include <functional>
#include <memory>

#include "core/cluster.hpp"
#include "sim/random.hpp"

int main() {
  using namespace now;
  constexpr std::uint32_t kNodes = 16;
  constexpr sim::SimTime kHorizon = 120 * sim::kSecond;
  constexpr sim::SimTime kRun = 150 * sim::kSecond;  // drain + re-admit

  ClusterConfig cfg;
  cfg.workstations = kNodes;
  cfg.with_xfs = true;
  cfg.xfs.client_cache_blocks = 96;
  cfg.with_netram_registry = true;
  cfg.glunix.heartbeat_interval = sim::kSecond;
  cfg.fault_policy.rebuild_bytes_per_member = 256 * 1024;
  // The script: node 3 (a gang member and block manager) dies and comes
  // back; node 5's disk fails and is swapped; node 7's cable gets pulled
  // for two seconds; the owner of donor machine 12 comes back.  On top,
  // seeded churn keeps nodes 1-2, link 9, and owner 13 restless.
  cfg.fault_plan.crash_at(10 * sim::kSecond, 3)
      .restart_at(25 * sim::kSecond, 3)
      .owner_return_at(15 * sim::kSecond, 12)
      .disk_fail_at(30 * sim::kSecond, 5)
      .disk_replace_at(40 * sim::kSecond, 5)
      .link_down_at(50 * sim::kSecond, 7)
      .link_up_at(52 * sim::kSecond, 7)
      .with_node_churn(60 * sim::kSecond, 8 * sim::kSecond, {1, 2})
      .with_link_flaps(40 * sim::kSecond, 2 * sim::kSecond, {9})
      .with_owner_returns(30 * sim::kSecond, {13})
      .until(kHorizon);
  Cluster c(cfg);
  c.enable_tracing();
  c.memory_registry().add_donor(c.node(12));
  c.memory_registry().add_donor(c.node(13));
  c.memory_registry().add_donor(c.node(14));

  std::printf("break_now: %u workstations, GLUnix + xFS + netram, "
              "fault plan armed\n\n",
              c.size());

  // A gang lands on nodes 1..4, so the scripted crash of node 3 displaces
  // it mid-run; GLUnix restarts the gang and it still completes.
  bool gang_done = false;
  c.engine().schedule_at(2 * sim::kSecond, [&] {
    c.glunix().run_parallel(4, 20 * sim::kSecond, 8ull << 20,
                            [&gang_done] { gang_done = true; });
  });
  int batch_done = 0;
  for (int j = 0; j < 6; ++j) {
    c.engine().schedule_at((5 + 15 * j) * sim::kSecond, [&c, &batch_done] {
      c.glunix().run_remote(8 * sim::kSecond, 4ull << 20,
                            [&batch_done](net::NodeId) { ++batch_done; });
    });
  }

  // Steady xFS traffic from every live machine, so the failures always
  // have in-flight work to disturb.
  auto rng = std::make_shared<sim::Pcg32>(3, 0x62726b);
  auto fs_ops = std::make_shared<int>(0);
  auto issue = std::make_shared<std::function<void()>>();
  *issue = [&c, rng, fs_ops, issue] {
    if (c.engine().now() >= kHorizon) {
      *issue = nullptr;
      return;
    }
    auto node = rng->next_below(kNodes);
    if (!c.node(node).alive()) node = (node + 1) % kNodes;
    const xfs::BlockId b = rng->next_below(4'000);
    auto cont = [&c, fs_ops, issue](bool) {
      ++*fs_ops;
      c.engine().schedule_in(25 * sim::kMillisecond, [issue] {
        if (*issue) (*issue)();
      });
    };
    if (rng->bernoulli(0.3)) {
      c.fs().write(node, b, cont);
    } else {
      c.fs().read(node, b, cont);
    }
  };
  (*issue)();

  c.run_until(kRun);

  const fault::FaultStats& f = c.faults().stats();
  const xfs::XfsStats& x = c.fs().stats();
  const raid::RaidStats r = c.storage_stats();
  std::printf("injected:  %llu crashes, %llu restarts, %llu disk fails, "
              "%llu replacements,\n           %llu link downs, %llu owner "
              "returns\n",
              static_cast<unsigned long long>(f.node_crashes),
              static_cast<unsigned long long>(f.node_restarts),
              static_cast<unsigned long long>(f.disk_fails),
              static_cast<unsigned long long>(f.disk_replacements),
              static_cast<unsigned long long>(f.link_downs),
              static_cast<unsigned long long>(f.owner_returns));
  std::printf("reactions: %llu manager takeovers, %llu/%llu rebuilds "
              "done, %llu degraded reads,\n           %llu donor "
              "revocations, %llu gang crash-restarts\n",
              static_cast<unsigned long long>(f.manager_takeovers),
              static_cast<unsigned long long>(f.rebuilds_completed),
              static_cast<unsigned long long>(f.rebuilds_started),
              static_cast<unsigned long long>(r.degraded_reads),
              static_cast<unsigned long long>(f.donor_revocations),
              static_cast<unsigned long long>(
                  c.glunix().stats().crash_restarts));
  std::printf("workload:  %d xFS ops (%llu retried, %llu failed), gang "
              "%s, %d/6 batch jobs\n",
              *fs_ops, static_cast<unsigned long long>(x.op_retries),
              static_cast<unsigned long long>(x.failed_ops),
              gang_done ? "completed" : "NOT DONE", batch_done);
  std::printf("health:    storage %s, %u/%u nodes up\n",
              c.storage_degraded() ? "DEGRADED" : "whole",
              c.size() - static_cast<std::uint32_t>(
                             c.faults().nodes_down()),
              c.size());

  const bool trace_ok = c.trace_to("break_now.trace.json");
  std::printf("trace:     break_now.trace.json (%zu events) %s\n",
              obs::tracer().size(), trace_ok ? "ok" : "WRITE FAILED");

  // The example doubles as a smoke test: the scripted half of the plan
  // must have fired and the cluster must have ridden it out.
  const bool ok = trace_ok && gang_done && f.node_crashes >= 1 &&
                  f.node_restarts >= 1 && f.disk_fails >= 1 &&
                  f.disk_replacements >= 1 && f.rebuilds_completed >= 1 &&
                  f.link_downs >= 1 && f.owner_returns >= 1 &&
                  f.manager_takeovers >= 1 && f.donor_revocations >= 1 &&
                  *fs_ops > 0;
  std::printf("\n%s\n", ok ? "the building kept serving files."
                           : "SMOKE CHECK FAILED");
  return ok ? 0 : 1;
}
