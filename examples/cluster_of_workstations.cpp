// A day in the life of a building-wide NOW.
//
// Interactive owners come and go per a synthetic usage trace; a stream of
// batch jobs arrives at GLUnix, runs on whatever machines are idle, and is
// migrated away — memory state and all — the moment an owner touches a
// keyboard.  The interactive users keep their machines; the batch queue
// gets a free MPP's worth of cycles.
//
//   $ ./examples/cluster_of_workstations
#include <cstdio>

#include "core/cluster.hpp"
#include "sim/random.hpp"
#include "trace/usage_trace.hpp"

int main() {
  using namespace now;

  constexpr std::uint32_t kWorkstations = 24;
  ClusterConfig cfg;
  cfg.workstations = kWorkstations;
  cfg.glunix.poll_interval = 2 * sim::kSecond;
  Cluster c(cfg);

  // Owners' behaviour for a 4-hour stretch of the day.
  trace::UsageParams up;
  up.workstations = kWorkstations;
  up.duration = 4 * sim::kHour;
  up.owner_present_probability = 0.6;
  up.seed = 23;
  const trace::UsageTrace usage(up);

  // Feed the trace into the nodes' consoles: activity every 2 seconds for
  // the span of each busy interval (like the original logging daemons,
  // run in reverse).
  for (std::uint32_t n = 0; n < kWorkstations; ++n) {
    for (const auto& b : usage.intervals(n)) {
      for (sim::SimTime t = b.begin; t < b.end; t += 2 * sim::kSecond) {
        c.engine().schedule_at(t, [&c, n] { c.node(n).user_activity(); });
      }
    }
  }

  // The batch queue: a job every few minutes, 1-10 minutes of CPU each.
  sim::Pcg32 rng(11, 0x6e6f7764);
  int submitted = 0;
  int completed = 0;
  bool last_report = false;
  // Once every job is done and the hour-4 report has printed, nothing left
  // can change the summary: stop rather than idle to the deadline.
  const auto stop_when_done = [&c, &submitted, &completed, &last_report] {
    if (last_report && completed == submitted) c.engine().stop();
  };
  for (sim::SimTime t = 30 * sim::kSecond; t < up.duration;
       t += sim::from_sec(rng.uniform(120, 360))) {
    const auto work = sim::from_sec(rng.uniform(60, 600));
    c.engine().schedule_at(t, [&c, &completed, &stop_when_done, work] {
      c.glunix().run_remote(work, 32ull << 20,
                            [&completed, &stop_when_done](net::NodeId) {
                              ++completed;
                              stop_when_done();
                            });
    });
    ++submitted;
  }

  std::printf("building-wide NOW: %u workstations, 4-hour weekday "
              "afternoon\n",
              kWorkstations);
  std::printf("interactive owners present on %.0f%% of machines; %d batch "
              "jobs submitted\n\n",
              100 * (1 - usage.fraction_always_idle()), submitted);

  // Hourly progress reports.
  for (int h = 1; h <= 4; ++h) {
    c.engine().schedule_at(h * sim::kHour, [&, h] {
      const auto& s = c.glunix().stats();
      std::printf("[hour %d] idle machines: %2zu   jobs done: %3d   "
                  "migrations so far: %llu\n",
                  h, c.glunix().idle_node_count(), completed,
                  static_cast<unsigned long long>(s.migrations));
      last_report = h == 4;
      stop_when_done();
    });
  }

  c.run_until(up.duration + 30 * sim::kMinute);

  const auto& s = c.glunix().stats();
  std::printf("\nend of day: %d/%d jobs completed\n", completed, submitted);
  std::printf("  evictions (owner returned, guest migrated): %llu\n",
              static_cast<unsigned long long>(s.migrations));
  std::printf("  each migration moved 32 MB of state in ~%.1f s "
              "(owner waits only for the freeze)\n",
              sim::to_sec(c.glunix().migration_downtime(32ull << 20)));
  std::printf("  deepest backlog waiting for idle machines: %llu\n",
              static_cast<unsigned long long>(s.waiting_peak));
  std::printf("\nno user lost their machine; the batch queue got its "
              "cycles from thin air.\n");
  return 0;
}
