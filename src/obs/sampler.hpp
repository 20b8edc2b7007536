// now::obs — periodic time-series sampler.
//
// A Sampler is a simulated actor: every `period` of *simulated* time it
// snapshots a chosen set of registry paths (via MetricsRegistry::read, so
// counters read their running total and gauges their current level) and
// appends one row to an in-memory table.  After the run the table dumps as
// CSV ("time_ms,net.packets_sent,...") or JSON — the raw material for the
// utilization-over-time plots in the paper's Figure 3 discussion.
//
// Like every obs component the sampler only consumes simulated time; its
// tick is an ordinary engine event, so sampling is deterministic and, at
// priority +1, observes the state *after* all same-instant simulation work.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace now::obs {

class Sampler {
 public:
  Sampler(sim::Engine& engine, MetricsRegistry& registry, sim::Duration period)
      : engine_(engine), registry_(registry), period_(period) {}
  ~Sampler() { stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Adds `path` as a column.  Unregistered paths sample as 0 until
  /// something reports there.  Call before start().
  void watch(std::string path);

  /// Begins ticking every `period`, first sample one period from now.
  void start();
  /// Cancels the pending tick; recorded rows are kept.
  void stop();

  std::size_t rows() const { return times_.size(); }
  const std::vector<std::string>& columns() const { return columns_; }

  /// "time_ms,<path>,..." header then one row per sample.
  void dump_csv(std::ostream& os) const;
  bool dump_csv_to(const std::string& path) const;
  /// {"columns": [...], "rows": [[t_ms, v, ...], ...]}
  void dump_json(std::ostream& os) const;

 private:
  void tick();

  sim::Engine& engine_;
  MetricsRegistry& registry_;
  sim::Duration period_;
  sim::EventId pending_ = 0;
  std::vector<std::string> columns_;
  std::vector<sim::SimTime> times_;
  std::vector<double> values_;  // rows() * columns() row-major samples
};

}  // namespace now::obs
