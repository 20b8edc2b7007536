// Observing a NOW: a Figure-3-style mixed workload with the observability
// subsystem turned all the way up.
//
// A 24-workstation cluster runs three things at once — interactive owners
// coming and going, a GLUnix batch queue stealing the idle machines, and
// shared xFS traffic over the striped log — while now::obs records it all:
//
//   * every subsystem's counters/gauges/summaries in the metrics registry
//     (dumped as sorted JSON, bit-identical across runs for a fixed seed),
//   * spans and instants in simulated time, exported as Chrome trace-event
//     JSON — load observe_now.trace.json in Perfetto (ui.perfetto.dev) and
//     read it as "what was every layer of node 7 doing at t = 1.83 s",
//   * a periodic sampler producing utilization-over-time CSV.
//
//   $ ./examples/observe_now
//   $ ls observe_now.*       # trace JSON, metrics JSON, timeline CSV
#include <cstdio>
#include <functional>
#include <memory>

#include "core/cluster.hpp"
#include "sim/random.hpp"
#include "trace/usage_trace.hpp"

int main() {
  using namespace now;
  constexpr std::uint32_t kNodes = 24;
  constexpr sim::Duration kRun = 4 * sim::kMinute;

  ClusterConfig cfg;
  cfg.workstations = kNodes;
  cfg.with_xfs = true;
  cfg.xfs.client_cache_blocks = 96;
  cfg.xfs.segment_blocks = 14;
  cfg.glunix.poll_interval = 2 * sim::kSecond;
  cfg.glunix.heartbeat_interval = sim::kSecond;
  Cluster c(cfg);

  // Observability on: record up to 1M events; sample key series at 250 ms.
  c.enable_tracing();
  obs::Sampler sampler(c.engine(), c.metrics(), 250 * sim::kMillisecond);
  for (const char* path :
       {"glunix.idle_nodes", "glunix.completed", "net.packets_sent",
        "xfs.log.utilization", "os.disk.queue_depth", "am.retransmits"}) {
    sampler.watch(path);
  }
  sampler.start();

  std::printf("observe_now: %u workstations, GLUnix + xFS + AM, "
              "tracing on\n",
              c.size());

  // --- Interactive owners (they make machines non-idle) -----------------
  trace::UsageParams up;
  up.workstations = kNodes;
  up.duration = kRun;
  up.owner_present_probability = 0.5;
  up.seed = 7;
  const trace::UsageTrace usage(up);
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    for (const auto& b : usage.intervals(n)) {
      for (sim::SimTime t = b.begin; t < b.end; t += 2 * sim::kSecond) {
        c.engine().schedule_at(t, [&c, n] { c.node(n).user_activity(); });
      }
    }
  }

  // --- GLUnix batch queue ------------------------------------------------
  sim::Pcg32 rng(11, 0x6f627376);
  int batch_done = 0, batch_submitted = 0;
  for (sim::SimTime t = 5 * sim::kSecond; t < kRun - 60 * sim::kSecond;
       t += sim::from_sec(rng.uniform(4, 12))) {
    const auto work = sim::from_sec(rng.uniform(10, 40));
    ++batch_submitted;
    c.engine().schedule_at(t, [&c, &batch_done, work] {
      c.glunix().run_remote(work, 16ull << 20,
                            [&batch_done](net::NodeId) { ++batch_done; });
    });
  }
  // Plus one gang, so gang spans/pauses show up in the trace.
  bool gang_done = false;
  c.engine().schedule_at(20 * sim::kSecond, [&] {
    c.glunix().run_parallel(4, 30 * sim::kSecond, 8ull << 20,
                            [&gang_done] { gang_done = true; });
  });

  // --- Shared xFS traffic ------------------------------------------------
  auto fs_rng = std::make_shared<sim::Pcg32>(5, 0x786673);
  auto fs_ops = std::make_shared<int>(0);
  auto issue = std::make_shared<std::function<void(int)>>();
  *issue = [&c, fs_rng, fs_ops, issue](int remaining) {
    if (remaining == 0) {
      *issue = nullptr;
      return;
    }
    auto node = fs_rng->next_below(kNodes);
    if (!c.node(node).alive()) node = (node + 1) % kNodes;
    const xfs::BlockId b = fs_rng->next_below(4'000);
    auto cont = [&c, fs_ops, issue, remaining](bool) {
      ++*fs_ops;
      c.engine().schedule_in(15 * sim::kMillisecond, [issue, remaining] {
        if (*issue) (*issue)(remaining - 1);
      });
    };
    if (fs_rng->bernoulli(0.3)) {
      c.fs().write(node, b, cont);
    } else {
      c.fs().read(node, b, cont);
    }
  };
  (*issue)(6'000);

  c.run_until(kRun);
  sampler.stop();

  // --- Dump everything ---------------------------------------------------
  const bool trace_ok = c.trace_to("observe_now.trace.json");
  const bool metrics_ok = c.metrics().dump_json_to("observe_now.metrics.json");
  const bool csv_ok = sampler.dump_csv_to("observe_now.timeline.csv");

  std::printf("\nworkload: %d/%d batch jobs done, gang %s, %d xFS ops\n",
              batch_done, batch_submitted, gang_done ? "done" : "running",
              *fs_ops);
  std::printf("trace:    observe_now.trace.json    (%zu events, %llu "
              "dropped) %s\n",
              obs::tracer().size(),
              static_cast<unsigned long long>(obs::tracer().dropped()),
              trace_ok ? "ok" : "WRITE FAILED");
  std::printf("metrics:  observe_now.metrics.json  %s\n",
              metrics_ok ? "ok" : "WRITE FAILED");
  std::printf("timeline: observe_now.timeline.csv  (%zu samples) %s\n",
              sampler.rows(), csv_ok ? "ok" : "WRITE FAILED");
  std::printf("\nopen the trace at ui.perfetto.dev - one process row per "
              "workstation,\none thread track per layer (net, proto, os, "
              "xfs, glunix).\n");
  return (trace_ok && metrics_ok && csv_ok) ? 0 : 1;
}
