#include "serve/slo.hpp"

namespace now::serve {

SloTracker::SloTracker(std::string prefix)
    : prefix_(std::move(prefix)),
      stats_obs_(prefix_, [this](obs::Sink& s) {
        for (const ClassStats& c : classes_) {
          s.histogram(c.name + ".latency_us", c.latency_us);
          s.counter(c.name + ".completed", c.latency_us.count());
          s.counter(c.name + ".failed", c.failed);
          s.counter(c.name + ".slo_miss", c.latency_us.count() - c.slo_met);
        }
      }) {}

std::size_t SloTracker::add_class(const std::string& name,
                                  sim::Duration slo) {
  ClassStats c;
  c.name = name;
  c.slo = slo;
  classes_.push_back(std::move(c));
  return classes_.size() - 1;
}

void SloTracker::record(std::size_t cls, sim::Duration latency, bool ok) {
  ClassStats& cs = classes_.at(cls);
  const double us = sim::to_us(latency);
  cs.latency_us.add(us);
  cs.sum_ns += static_cast<std::uint64_t>(latency);
  all_us_.add(us);
  all_sum_ns_ += static_cast<std::uint64_t>(latency);
  if (ok) {
    ++cs.ok;
  } else {
    ++cs.failed;
  }
  if (ok && latency <= cs.slo) ++cs.slo_met;
}

void SloTracker::fill(SloClassReport& r, const sim::Histogram& h,
                      std::uint64_t sum_ns, sim::Duration elapsed) {
  r.completed = h.count();
  // Mean from the exact integer nanosecond sum.
  r.mean_ms = r.completed > 0 ? static_cast<double>(sum_ns) /
                                    static_cast<double>(r.completed) /
                                    1'000'000.0
                              : 0.0;
  r.p50_ms = h.percentile(0.50) / 1'000.0;
  r.p99_ms = h.percentile(0.99) / 1'000.0;
  r.p999_ms = h.percentile(0.999) / 1'000.0;
  r.max_ms = h.max() / 1'000.0;
  r.attainment = r.completed > 0 ? static_cast<double>(r.slo_met) /
                                       static_cast<double>(r.completed)
                                 : 1.0;
  r.goodput_per_sec =
      elapsed > 0 ? static_cast<double>(r.slo_met) / sim::to_sec(elapsed)
                  : 0.0;
}

SloClassReport SloTracker::report(std::size_t cls,
                                  sim::Duration elapsed) const {
  const ClassStats& c = classes_.at(cls);
  SloClassReport r;
  r.name = c.name;
  r.slo = c.slo;
  r.ok = c.ok;
  r.failed = c.failed;
  r.slo_met = c.slo_met;
  fill(r, c.latency_us, c.sum_ns, elapsed);
  return r;
}

SloClassReport SloTracker::overall(sim::Duration elapsed) const {
  SloClassReport r;
  r.name = "all";
  for (const ClassStats& c : classes_) {
    r.ok += c.ok;
    r.failed += c.failed;
    r.slo_met += c.slo_met;
  }
  fill(r, all_us_, all_sum_ns_, elapsed);
  return r;
}

}  // namespace now::serve
