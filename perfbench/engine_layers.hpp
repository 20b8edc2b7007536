// Layer counters read from a Cluster's public stats, and the run loop the
// engine workloads share.
#pragma once

#include <vector>

#include "core/cluster.hpp"
#include "harness.hpp"

namespace perfbench {

/// Every engine executing `c`: the cluster engine plus each partition lane.
std::vector<now::sim::Engine*> engines_of(now::Cluster& c);

/// Events dispatched so far, summed over `engines`.
std::uint64_t events_dispatched(const std::vector<now::sim::Engine*>& engines);

/// Fills the sim.*, net.*, am.* and rpc.* counters.  With `digest`, the
/// lane-count-invariant ones (packets, bytes, messages, calls) are mixed in.
void add_engine_counts(now::Cluster& c, RepResult& r, Digest* digest);

/// Runs `c` to `end`.  Untraced: one run_until call.  Traced: fixed slices
/// of simulated length `slice`, each inside a "run_until" span, with the
/// layer counters plus `extra()` sampled at every slice boundary.
template <class Extra>
void drive(now::Cluster& c, now::sim::SimTime end, now::sim::Duration slice,
           Spans& spans, Extra&& extra) {
  if (!spans.enabled()) {
    c.run_until(end);
    return;
  }
  const std::vector<now::sim::Engine*> engines = engines_of(c);
  for (now::sim::SimTime t = slice;; t += slice) {
    const now::sim::SimTime stop = t < end ? t : end;
    {
      SpanScope s(spans, "run_until");
      c.run_until(stop);
    }
    SpanScope s(spans, "sample");
    const auto& net = c.network().stats();
    std::vector<std::pair<const char*, double>> v{
        {"sim.events", static_cast<double>(events_dispatched(engines))},
        {"net.packets", static_cast<double>(net.packets_sent)},
        {"am.sent", static_cast<double>(c.am().stats().sent)},
        {"rpc.calls", static_cast<double>(c.rpc().calls_sent())}};
    extra(v);
    spans.sample(now::sim::to_ms(stop), v);
    if (stop == end) break;
  }
}

}  // namespace perfbench
