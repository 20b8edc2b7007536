#include "serve/slo.hpp"

#include <cassert>

namespace now::serve {

SloTracker::SloTracker(std::string prefix)
    : prefix_(std::move(prefix)),
      shards_(1),
      stats_obs_(prefix_, [this](obs::Sink& s) {
        for (std::size_t c = 0; c < classes_.size(); ++c) {
          const ClassShard m = merged(c);
          const std::string& name = classes_[c].name;
          s.histogram(name + ".latency_us", m.latency_us);
          s.counter(name + ".completed", m.latency_us.count());
          s.counter(name + ".failed", m.failed);
          s.counter(name + ".slo_miss", m.latency_us.count() - m.slo_met);
        }
      }) {}

std::size_t SloTracker::add_class(const std::string& name,
                                  sim::Duration slo) {
  classes_.push_back(ClassMeta{name, slo});
  for (LaneShard& lane : shards_) lane.classes.emplace_back();
  return classes_.size() - 1;
}

void SloTracker::set_lanes(unsigned lanes) {
  assert(lanes >= 1);
  assert(completed() == 0 && "set_lanes() must precede record()");
  shards_.assign(lanes, LaneShard{});
  for (LaneShard& lane : shards_) lane.classes.resize(classes_.size());
}

void SloTracker::record(std::size_t cls, sim::Duration latency, bool ok,
                        unsigned lane) {
  LaneShard& shard = shards_.at(lane);
  ClassShard& cs = shard.classes.at(cls);
  const double us = sim::to_us(latency);
  cs.latency_us.add(us);
  cs.sum_ns += static_cast<std::uint64_t>(latency);
  shard.all_us.add(us);
  shard.all_sum_ns += static_cast<std::uint64_t>(latency);
  ++shard.completed;
  if (ok) {
    ++cs.ok;
  } else {
    ++cs.failed;
  }
  if (ok && latency <= classes_[cls].slo) ++cs.slo_met;
}

std::uint64_t SloTracker::completed() const {
  std::uint64_t n = 0;
  for (const LaneShard& lane : shards_) n += lane.completed;
  return n;
}

SloTracker::ClassShard SloTracker::merged(std::size_t cls) const {
  ClassShard out;
  for (const LaneShard& lane : shards_) {
    const ClassShard& cs = lane.classes.at(cls);
    out.latency_us.merge(cs.latency_us);
    out.sum_ns += cs.sum_ns;
    out.ok += cs.ok;
    out.failed += cs.failed;
    out.slo_met += cs.slo_met;
  }
  return out;
}

void SloTracker::fill(SloClassReport& r, const sim::Histogram& h,
                      std::uint64_t sum_ns, sim::Duration elapsed) {
  r.completed = h.count();
  // Mean from the exact integer nanosecond sum: grouping-invariant, so the
  // report is byte-identical whether one lane recorded everything or
  // sixteen shared the work.
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
  const ClassMeta& meta = classes_.at(cls);
  const ClassShard m = merged(cls);
  SloClassReport r;
  r.name = meta.name;
  r.slo = meta.slo;
  r.ok = m.ok;
  r.failed = m.failed;
  r.slo_met = m.slo_met;
  fill(r, m.latency_us, m.sum_ns, elapsed);
  return r;
}

SloClassReport SloTracker::overall(sim::Duration elapsed) const {
  SloClassReport r;
  r.name = "all";
  sim::Histogram all{1.0, 1.02};
  std::uint64_t sum_ns = 0;
  for (const LaneShard& lane : shards_) {
    all.merge(lane.all_us);
    sum_ns += lane.all_sum_ns;
  }
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const ClassShard m = merged(c);
    r.ok += m.ok;
    r.failed += m.failed;
    r.slo_met += m.slo_met;
  }
  fill(r, all, sum_ns, elapsed);
  return r;
}

}  // namespace now::serve
