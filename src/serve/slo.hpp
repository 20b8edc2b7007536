// now::serve — tail-latency SLO accounting.
//
// A serving system is judged on its tail, not its mean: the paper-era
// argument for dedicating a building to a service only holds if p99/p999
// end-to-end latency stays inside a service-level objective while load
// and failures do their worst.  SloTracker records every completed
// request into a fine-grained log-spaced histogram (2 % relative
// quantile error) per request class, judges it against the class SLO,
// and reports p50/p99/p999, attainment (fraction of completed requests
// that succeeded *and* met the SLO), and goodput (SLO-meeting successes
// per second of offered interval).
//
// The mean comes from an exact integer nanosecond sum, not a running
// floating-point average, so it does not depend on recording order.
//
// Each class is reported to now::obs under <prefix>.<class>.* — the
// latency histogram plus completed/failed/slo_miss counters — so serving
// runs show up in metrics dumps and the periodic sampler like every
// other subsystem.  The registry reads the tallies when asked; recording
// never touches it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace now::serve {

struct SloClassReport {
  std::string name;
  sim::Duration slo = 0;
  std::uint64_t completed = 0;
  std::uint64_t ok = 0;      // completed successfully (no backend failure)
  std::uint64_t failed = 0;  // backend reported failure (EIO / timeout)
  std::uint64_t slo_met = 0; // ok and latency <= slo
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;
  /// slo_met / completed; 1.0 before any completion.
  double attainment = 1.0;
  /// slo_met per second of the reporting interval.
  double goodput_per_sec = 0.0;
};

class SloTracker {
 public:
  /// Classes report under "<prefix>.<class>.*" in the calling thread's
  /// obs registry (the run's private one inside a sweep).
  explicit SloTracker(std::string prefix = "serve");

  /// Adds a request class; returns its index.  Call before record().
  std::size_t add_class(const std::string& name, sim::Duration slo);

  std::size_t classes() const { return classes_.size(); }

  /// Records one completed request of class `cls`: end-to-end `latency`,
  /// and whether the backend succeeded.  A failed request can never meet
  /// the SLO, whatever its latency.
  void record(std::size_t cls, sim::Duration latency, bool ok);

  /// Per-class report; `elapsed` is the interval goodput is judged over.
  SloClassReport report(std::size_t cls, sim::Duration elapsed) const;

  /// All classes merged (each request judged against its own class SLO).
  SloClassReport overall(sim::Duration elapsed) const;

  std::uint64_t completed() const { return all_us_.count(); }

 private:
  struct ClassStats {
    std::string name;
    sim::Duration slo = 0;
    // 1 us floor, 2 % bins: tight enough for honest p999 readings.
    sim::Histogram latency_us{1.0, 1.02};
    /// Exact latency sum, so the mean is independent of recording order.
    std::uint64_t sum_ns = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t slo_met = 0;
  };

  static void fill(SloClassReport& r, const sim::Histogram& h,
                   std::uint64_t sum_ns, sim::Duration elapsed);

  std::string prefix_;
  std::vector<ClassStats> classes_;
  sim::Histogram all_us_{1.0, 1.02};
  std::uint64_t all_sum_ns_ = 0;
  obs::Collector stats_obs_;
};

}  // namespace now::serve
