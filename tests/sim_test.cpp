// Unit tests for the discrete-event engine, RNG, statistics, and the
// structured log's NOW_LOG filter + pluggable sink.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/engine.hpp"
#include "sim/flat_map.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace now::sim {
namespace {

using namespace now::sim::literals;

TEST(Engine, StartsAtTimeZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0);
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(Engine, DispatchesInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(30, [&] { order.push_back(3); });
  eng.schedule_at(10, [&] { order.push_back(1); });
  eng.schedule_at(20, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30);
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(5, [&] { order.push_back(1); });
  eng.schedule_at(5, [&] { order.push_back(2); });
  eng.schedule_at(5, [&] { order.push_back(3); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, TiesBreakByPriorityBeforeInsertion) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(5, [&] { order.push_back(1); }, /*priority=*/1);
  eng.schedule_at(5, [&] { order.push_back(2); }, /*priority=*/0);
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine eng;
  int fired = 0;
  eng.schedule_in(10, [&] {
    eng.schedule_in(10, [&] { ++fired; });
  });
  eng.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 20);
}

TEST(Engine, CancelPreventsDispatch) {
  Engine eng;
  int fired = 0;
  const EventId id = eng.schedule_in(10, [&] { ++fired; });
  EXPECT_TRUE(eng.cancel(id));
  EXPECT_FALSE(eng.cancel(id));  // double-cancel is a no-op
  eng.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(10, [&] { ++fired; });
  eng.schedule_at(20, [&] { ++fired; });
  eng.schedule_at(30, [&] { ++fired; });
  eng.run_until(20);
  EXPECT_EQ(fired, 2);  // events at exactly the deadline run
  EXPECT_EQ(eng.now(), 20);
  eng.run();
  EXPECT_EQ(fired, 3);
}

TEST(Engine, RunUntilAdvancesClockToDeadlineWhenIdle) {
  Engine eng;
  eng.run_until(5 * kSecond);
  EXPECT_EQ(eng.now(), 5 * kSecond);
}

TEST(Engine, StopHaltsRun) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(10, [&] {
    ++fired;
    eng.stop();
  });
  eng.schedule_at(20, [&] { ++fired; });
  eng.run();
  EXPECT_EQ(fired, 1);
  eng.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, PastEventsClampToNow) {
  Engine eng;
  eng.schedule_at(100, [] {});
  eng.run();
  SimTime fired_at = -1;
  eng.schedule_at(50, [&] { fired_at = eng.now(); });  // in the past
  eng.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(Engine, CancelFromWithinAHandler) {
  Engine eng;
  int fired = 0;
  EventId later = 0;
  eng.schedule_at(10, [&] {
    // Cancel an event that is already in the queue for the same instant
    // and one in the future.
    eng.cancel(later);
  });
  later = eng.schedule_at(20, [&] { ++fired; });
  eng.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, HandlerSchedulingAtCurrentInstantRunsThisPass) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(10, [&] {
    order.push_back(1);
    eng.schedule_at(10, [&] { order.push_back(2); });  // same instant
  });
  eng.schedule_at(11, [&] { order.push_back(3); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, DispatchedCounts) {
  Engine eng;
  for (int i = 0; i < 7; ++i) eng.schedule_at(i, [] {});
  eng.run();
  EXPECT_EQ(eng.dispatched(), 7u);
}

TEST(Engine, StaleCancelAfterSlotReuseIsNoOp) {
  Engine eng;
  int fired = 0;
  // Cancel releases the pool slot; the next schedule reuses it under a fresh
  // generation.  The stale id must not be able to kill the new occupant.
  const EventId stale = eng.schedule_at(10, [&] { fired += 100; });
  EXPECT_TRUE(eng.cancel(stale));
  const EventId fresh = eng.schedule_at(10, [&] { ++fired; });
  EXPECT_FALSE(eng.cancel(stale));  // generation mismatch: no-op
  eng.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(eng.cancel(fresh));  // already fired
}

TEST(Engine, StaleIdStaysStaleAcrossManyReuses) {
  Engine eng;
  const EventId stale = eng.schedule_at(1, [] {});
  eng.cancel(stale);
  int fired = 0;
  for (int i = 0; i < 1'000; ++i) {
    eng.schedule_at(i, [&] { ++fired; });
    EXPECT_FALSE(eng.cancel(stale));
  }
  eng.run();
  EXPECT_EQ(fired, 1'000);
}

TEST(Engine, TieBreakOrderIsDeterministicAcrossRuns) {
  // Two independent engines fed the same scrambled same-time schedule must
  // dispatch in the identical order (time, then priority, then insertion).
  const auto record = [] {
    Engine eng;
    std::vector<int> order;
    for (int i = 0; i < 64; ++i) {
      const SimTime t = (i * 7) % 3;          // times 0..2, scrambled
      const int prio = (i * 5) % 4 - 2;       // priorities -2..1, scrambled
      eng.schedule_at(t, [&order, i] { order.push_back(i); }, prio);
    }
    eng.run();
    return order;
  };
  const std::vector<int> first = record();
  const std::vector<int> second = record();
  ASSERT_EQ(first.size(), 64u);
  EXPECT_EQ(first, second);
}

TEST(Engine, MillionEventStress) {
  constexpr int kSeeds = 1'000;
  constexpr int kChainLength = 1'000;  // 1M dispatches total
  Engine eng;
  std::uint64_t fired = 0;
  // kSeeds self-rescheduling chains with interleaved deadlines, plus a
  // cancelled twin per seed to exercise slot reuse under load.
  std::function<void(int, int)> hop = [&](int chain, int depth) {
    ++fired;
    if (depth < kChainLength) {
      eng.schedule_at(eng.now() + kSeeds, [&hop, chain, depth] {
        hop(chain, depth + 1);
      });
    }
  };
  for (int c = 0; c < kSeeds; ++c) {
    eng.schedule_at(c, [&hop, c] { hop(c, 1); });
    eng.cancel(eng.schedule_at(c, [] {}));
  }
  eng.run();
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kSeeds) * kChainLength);
  EXPECT_EQ(eng.dispatched(), fired);
  // Chain c hops at times c, c + kSeeds, ..., c + (kChainLength-1)*kSeeds;
  // the last event overall is chain kSeeds-1 at depth kChainLength.
  EXPECT_EQ(eng.now(), (kSeeds - 1) + static_cast<SimTime>(kSeeds) *
                                          (kChainLength - 1));
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(Engine, RescheduleMovesPendingEvent) {
  Engine eng;
  SimTime fired_at = -1;
  EventId id = eng.schedule_at(10, [&] { fired_at = eng.now(); });
  id = eng.reschedule(id, 50);
  ASSERT_NE(id, 0u);
  eng.run();
  EXPECT_EQ(fired_at, 50);
  EXPECT_EQ(eng.now(), 50);
}

TEST(Engine, RescheduleInvalidatesOldId) {
  Engine eng;
  int fired = 0;
  const EventId old_id = eng.schedule_at(10, [&] { ++fired; });
  const EventId new_id = eng.reschedule(old_id, 20);
  ASSERT_NE(new_id, 0u);
  EXPECT_FALSE(eng.cancel(old_id));  // superseded
  EXPECT_TRUE(eng.cancel(new_id));
  eng.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, RescheduleOfFiredOrCancelledEventFails) {
  Engine eng;
  const EventId fired_id = eng.schedule_at(1, [] {});
  eng.run();
  EXPECT_EQ(eng.reschedule(fired_id, 10), 0u);
  const EventId cancelled = eng.schedule_at(5, [] {});
  eng.cancel(cancelled);
  EXPECT_EQ(eng.reschedule_in(cancelled, 10), 0u);
}

TEST(Engine, RescheduleCanPullAnEventEarlier) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(20, [&] { order.push_back(1); });
  EventId id = eng.schedule_at(30, [&] { order.push_back(2); });
  eng.schedule_at(5, [&, id] { eng.reschedule(id, 10); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(eng.now(), 20);
}

TEST(Engine, RunUntilLeavesClockAtLastEventWhenStopped) {
  Engine eng;
  eng.schedule_at(10, [&] { eng.stop(); });
  eng.schedule_at(20, [] {});
  const std::uint64_t n = eng.run_until(100);
  EXPECT_EQ(n, 1u);
  // A stopped run must not jump the clock forward to the deadline.
  EXPECT_EQ(eng.now(), 10);
  eng.run_until(100);
  EXPECT_EQ(eng.now(), 100);
}

TEST(Time, ConversionRoundTrip) {
  EXPECT_EQ(from_us(1.0), kMicrosecond);
  EXPECT_EQ(from_ms(1.0), kMillisecond);
  EXPECT_EQ(from_sec(1.0), kSecond);
  EXPECT_DOUBLE_EQ(to_us(123 * kMicrosecond), 123.0);
  EXPECT_DOUBLE_EQ(to_ms(250 * kMicrosecond), 0.25);
  EXPECT_DOUBLE_EQ(to_sec(1500 * kMillisecond), 1.5);
}

TEST(Time, FormatPicksUnits) {
  EXPECT_EQ(format_duration(500), "500 ns");
  EXPECT_EQ(format_duration(12 * kMicrosecond + 340), "12.34 us");
  EXPECT_EQ(format_duration(3 * kSecond), "3.00 s");
}

TEST(Pcg32, DeterministicForSeed) {
  Pcg32 a(42, 7), b(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Pcg32, StreamsDiffer) {
  Pcg32 a(42, 1), b(42, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Pcg32, UniformInRange) {
  Pcg32 r(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Pcg32, NextBelowUnbiasedCoverage) {
  Pcg32 r(3);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[r.next_below(10)];
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(Pcg32, ExponentialMeanConverges) {
  Pcg32 r(5);
  Summary s;
  for (int i = 0; i < 20000; ++i) s.add(r.exponential(10.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.5);
}

TEST(Pcg32, ParetoStaysInBounds) {
  Pcg32 r(6);
  for (int i = 0; i < 5000; ++i) {
    const double x = r.pareto(1.2, 1.0, 1000.0);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 1000.0 + 1e-9);
  }
}

TEST(Pcg32, NormalMoments) {
  Pcg32 r(7);
  Summary s;
  for (int i = 0; i < 20000; ++i) s.add(r.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Pcg32, UniformIntInclusiveBounds) {
  Pcg32 r(8);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = r.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Zipf, SkewsTowardLowRanks) {
  Pcg32 r(9);
  ZipfSampler z(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[z.sample(r)];
  EXPECT_GT(counts[0], counts[50] * 5);
  EXPECT_GT(counts[0], counts[10]);
}

TEST(Zipf, ZeroExponentIsUniform) {
  Pcg32 r(10);
  ZipfSampler z(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[z.sample(r)];
  for (int c : counts) {
    EXPECT_GT(c, 1500);
    EXPECT_LT(c, 2500);
  }
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Summary, MergeMatchesCombined) {
  Summary a, b, all;
  Pcg32 r(11);
  for (int i = 0; i < 500; ++i) {
    const double x = r.normal(0, 1);
    a.add(x);
    all.add(x);
  }
  for (int i = 0; i < 300; ++i) {
    const double x = r.normal(10, 3);
    b.add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(Histogram, PercentilesBracketTrueValues) {
  Histogram h(1.0, 1.05);
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  EXPECT_NEAR(h.percentile(0.5), 500, 500 * 0.06);
  EXPECT_NEAR(h.percentile(0.99), 990, 990 * 0.06);
  EXPECT_EQ(h.count(), 1000u);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.0), 0.0);
  EXPECT_EQ(h.percentile(1.0), 0.0);
}

TEST(Histogram, ExtremeQuantilesBracketMinAndMax) {
  Histogram h(1.0, 1.05);
  for (double x : {2.0, 5.0, 20.0, 80.0, 300.0}) h.add(x);
  // q=0 is the smallest sample's bin upper bound; q=1 the largest's.
  EXPECT_GE(h.percentile(0.0), 2.0);
  EXPECT_LE(h.percentile(0.0), 2.0 * 1.05);
  EXPECT_GE(h.percentile(1.0), 300.0);
  EXPECT_LE(h.percentile(1.0), 300.0 * 1.05);
  // Out-of-range q clamps rather than misbehaving.
  EXPECT_EQ(h.percentile(-0.5), h.percentile(0.0));
  EXPECT_EQ(h.percentile(2.0), h.percentile(1.0));
}

TEST(Histogram, UnderflowBinResolvesToLo) {
  Histogram h(10.0, 1.05);
  for (int i = 0; i < 9; ++i) h.add(0.5);  // all below lo
  h.add(1000.0);
  EXPECT_EQ(h.count(), 10u);
  // 90 % of the mass is in the underflow bin: low quantiles report `lo`.
  EXPECT_EQ(h.percentile(0.0), 10.0);
  EXPECT_EQ(h.percentile(0.5), 10.0);
  EXPECT_GE(h.percentile(1.0), 1000.0);
  // The summary still sees the exact values.
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
}

// merge() is how per-lane latency shards combine at report time: bin
// counts are integers, so any grouping of the same samples must produce
// the identical histogram — the foundation of thread-count-invariant
// statistics.
TEST(Histogram, MergeEqualsSingleHistogramOverTheUnion) {
  Histogram whole(1.0, 1.05);
  Histogram a(1.0, 1.05), b(1.0, 1.05), c(1.0, 1.05);
  Pcg32 rng(99);
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.exponential(1.0 / 250.0) + 0.2;  // some underflow
    whole.add(x);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(x);
  }
  a.merge(b);
  a.merge(c);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(q), whole.percentile(q)) << "q=" << q;
  }
}

TEST(Histogram, MergeEmptyIsIdentity) {
  Histogram a(1.0, 1.05), empty(1.0, 1.05);
  a.add(3.0);
  a.add(70.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.max(), 70.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.percentile(1.0), a.percentile(1.0));
}

TEST(Summary, MergeVarianceIsExact) {
  // Small integer samples so the expected moments are exact by hand:
  // {1,2,3} merged with {10,14} = {1,2,3,10,14}.
  Summary a, b, all;
  for (double x : {1.0, 2.0, 3.0}) { a.add(x); all.add(x); }
  for (double x : {10.0, 14.0}) { b.add(x); all.add(x); }
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_DOUBLE_EQ(a.sum(), 30.0);
  EXPECT_DOUBLE_EQ(a.mean(), 6.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 14.0);
  // Sample variance of {1,2,3,10,14} is 130/4 = 32.5, and the pairwise
  // merge must reproduce it to rounding, not just approximately.
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_NEAR(a.variance(), 32.5, 1e-12);
}

TEST(Summary, MergeWithEmptySides) {
  Summary empty1, empty2;
  empty1.merge(empty2);
  EXPECT_EQ(empty1.count(), 0u);
  EXPECT_EQ(empty1.mean(), 0.0);

  Summary s;
  s.add(3.0);
  s.add(5.0);
  Summary lhs_empty;
  lhs_empty.merge(s);  // empty.merge(nonempty) adopts the other side
  EXPECT_EQ(lhs_empty.count(), 2u);
  EXPECT_DOUBLE_EQ(lhs_empty.mean(), 4.0);

  Summary rhs_empty;
  s.merge(rhs_empty);  // nonempty.merge(empty) is a no-op
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.0);
}

TEST(Log, EnvFilterSetsGlobalAndPerComponentLevels) {
  setenv("NOW_LOG", "warn, net=trace, xfs=debug", 1);
  init_log_from_env();
  EXPECT_EQ(log_threshold("am"), LogLevel::kWarn);     // global fallback
  EXPECT_EQ(log_threshold("net"), LogLevel::kTrace);   // override
  EXPECT_EQ(log_threshold("xfs"), LogLevel::kDebug);
  EXPECT_TRUE(log_enabled(LogLevel::kTrace, "net"));
  EXPECT_TRUE(log_enabled(LogLevel::kDebug, "xfs"));
  EXPECT_FALSE(log_enabled(LogLevel::kTrace, "xfs"));
  EXPECT_FALSE(log_enabled(LogLevel::kInfo, "am"));

  setenv("NOW_LOG", "off", 1);
  init_log_from_env();
  clear_module_log_levels();
  EXPECT_FALSE(log_enabled(LogLevel::kError, "anything"));

  unsetenv("NOW_LOG");
  set_log_level(LogLevel::kWarn);  // restore the default for other tests
}

TEST(Log, SinkReceivesOnlyLinesPassingTheFilter) {
  std::vector<std::string> got;
  set_log_sink([&got](LogLevel, SimTime at, const std::string& component,
                      const std::string& message) {
    got.push_back(component + "@" + std::to_string(at) + ": " + message);
  });
  set_log_level(LogLevel::kInfo);
  LogStream(LogLevel::kInfo, 1'500'000, "xfs") << "takeover -> node " << 8;
  LogStream(LogLevel::kDebug, 2'000'000, "xfs") << "below threshold";
  set_log_sink(nullptr);  // restore the stderr printer
  set_log_level(LogLevel::kWarn);

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "xfs@1500000: takeover -> node 8");
}

TEST(Log, FormatLineCarriesSimTimeLevelAndComponent) {
  const std::string line =
      format_log_line(LogLevel::kInfo, 12'345'000, "glunix", "node 3 down");
  EXPECT_NE(line.find("12.345"), std::string::npos);  // ms from ns
  EXPECT_NE(line.find("INFO"), std::string::npos);
  EXPECT_NE(line.find("glunix: node 3 down"), std::string::npos);
}

using Map = FlatMap<std::uint32_t>;

/// A map whose table is allocated (16 slots) but empty.
Map empty_table() {
  Map m;
  m.find_or_insert(0);
  m.erase(0);
  return m;
}

/// `m`'s value for `key`, or -1 when the key is missing.
std::int64_t value_of(const Map& m, std::uint64_t key) {
  const std::uint32_t* v = m.find(key);
  return v == nullptr ? std::int64_t{-1} : std::int64_t{*v};
}

/// The first `n` keys whose probe starts at `slot` in `m`'s table.
std::vector<std::uint64_t> keys_homed_at(const Map& m, std::size_t slot,
                                         std::size_t n) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 1; keys.size() < n; ++k) {
    if (m.bucket(k) == slot) keys.push_back(k);
  }
  return keys;
}

TEST(FlatMap, FindAndEraseBeforeFirstInsert) {
  Map m;
  EXPECT_EQ(m.find(0), nullptr);
  EXPECT_EQ(std::as_const(m).find(42), nullptr);
  EXPECT_FALSE(m.erase(42));
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.bucket_count(), 0u);
}

TEST(FlatMap, ProbeChainWrapsPastTheEnd) {
  Map m = empty_table();
  const std::size_t last = m.bucket_count() - 1;
  const auto keys = keys_homed_at(m, last, 3);  // slots last, 0, 1
  for (std::uint32_t i = 0; i < 3; ++i) m.find_or_insert(keys[i], 10 + i);
  ASSERT_EQ(m.bucket_count(), last + 1);  // no growth moved them
  for (std::uint32_t i = 0; i < 3; ++i) EXPECT_EQ(value_of(m, keys[i]), 10 + i);
  // Erasing the chain's head shifts the wrapped entries back across the end.
  EXPECT_TRUE(m.erase(keys[0]));
  EXPECT_EQ(value_of(m, keys[0]), -1);
  EXPECT_EQ(value_of(m, keys[1]), 11);
  EXPECT_EQ(value_of(m, keys[2]), 12);
  EXPECT_TRUE(m.erase(keys[2]));
  EXPECT_EQ(value_of(m, keys[1]), 11);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, EraseFromMiddleOfChainKeepsTheRest) {
  Map m = empty_table();
  // One run of slots 4..9: three keys homed at 4, then one homed at 5, one
  // at 7 and one at 9.  Erasing the second key homed at 4 (slot 5) must
  // pull the next three back one slot each, but leave the key homed at 9.
  std::vector<std::uint64_t> keys = keys_homed_at(m, 4, 3);
  for (const std::size_t slot : {5, 7, 9}) {
    keys.push_back(keys_homed_at(m, slot, 1)[0]);
  }
  for (std::uint32_t i = 0; i < keys.size(); ++i) m.find_or_insert(keys[i], i);
  ASSERT_EQ(m.bucket_count(), 16u);
  EXPECT_TRUE(m.erase(keys[1]));
  EXPECT_FALSE(m.erase(keys[1]));
  EXPECT_EQ(m.size(), keys.size() - 1);
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(value_of(m, keys[i]), i == 1 ? -1 : std::int64_t{i})
        << "key " << i;
  }
}

TEST(FlatMap, GrowthKeepsEveryEntry) {
  Map m;
  for (std::uint32_t k = 0; k < 10'000; ++k) {
    m.find_or_insert(k, 3 * k);
    const std::size_t slots = m.bucket_count();
    ASSERT_EQ(slots & (slots - 1), 0u) << "not a power of two";
    ASSERT_LE(2 * m.size(), slots) << "over half full";
  }
  EXPECT_EQ(m.size(), 10'000u);
  for (std::uint32_t k = 0; k < 10'000; ++k) {
    ASSERT_EQ(value_of(m, k), 3 * k) << k;
  }
  EXPECT_EQ(value_of(m, 10'000), -1);
  EXPECT_EQ(m.find_or_insert(7, 99), 21u);  // present: init ignored
}

TEST(FlatMap, EraseHeavyRandomRunMatchesUnorderedMap) {
  Map m;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  Pcg32 rng(5);
  for (int op = 0; op < 200'000; ++op) {
    // Mostly dense small ids, like block numbers, plus sparse wide ones.
    const std::uint64_t key =
        rng.next_below(4) != 0
            ? rng.next_below(600)
            : (std::uint64_t{rng.next_u32()} << 31) ^ rng.next_u32();
    const std::uint32_t r = rng.next_below(10);
    if (r < 4) {
      const std::uint32_t v = rng.next_u32();
      m.find_or_insert(key) = v;
      ref[key] = v;
    } else if (r < 8) {
      ASSERT_EQ(m.erase(key), ref.erase(key) == 1) << "op " << op;
    } else {
      const auto it = ref.find(key);
      const std::uint32_t* got = m.find(key);
      ASSERT_EQ(got != nullptr, it != ref.end()) << "op " << op;
      if (got != nullptr) {
        ASSERT_EQ(*got, it->second);
      }
    }
    if (op % 1'000 == 0) {
      ASSERT_EQ(m.size(), ref.size());
      std::size_t seen = 0;
      m.for_each([&](std::uint64_t k, std::uint32_t v) {
        ++seen;
        const auto it = ref.find(k);
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(v, it->second);
      });
      ASSERT_EQ(seen, ref.size());
    }
  }
}

// Protocol-layer key shapes: AM endpoint ids across the whole 32-bit range
// (kInvalidEndpoint included; only the all-ones 64-bit key is reserved).
TEST(FlatMap, EndpointIdKeysSpanAll32Bits) {
  Map m;
  const std::vector<std::uint64_t> keys = {0,          1,          0xffff,
                                           0x10000,    0x7fffffff, 0x80000000,
                                           0xfffffffe, 0xffffffff};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    m.find_or_insert(keys[i]) = static_cast<std::uint32_t>(i);
  }
  ASSERT_EQ(m.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(value_of(m, keys[i]), static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(value_of(m, 0x100000000ull), -1);  // a 33-bit neighbour
  EXPECT_TRUE(m.erase(0xffffffff));
  EXPECT_EQ(value_of(m, 0xffffffff), -1);
  EXPECT_EQ(value_of(m, 0xfffffffe), 6);
}

// RPC call ids are `node << 32 | seq`: every node's sequence climbs while
// old calls complete.  Under that churn the table stays exact and sized by
// the live calls, not by how many ever existed.
TEST(FlatMap, CallIdChurnStaysExactAndBounded) {
  Map m;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  constexpr std::uint64_t kNodes = 8;
  constexpr std::uint32_t kLive = 64;  // outstanding calls per node
  std::vector<std::uint32_t> next(kNodes, 1), oldest(kNodes, 1);
  Pcg32 rng(11);
  std::size_t peak_buckets = 0;
  for (int op = 0; op < 200'000; ++op) {
    const std::uint64_t node = rng.next_below(kNodes);
    const auto id = [node](std::uint32_t seq) { return node << 32 | seq; };
    if (next[node] - oldest[node] < kLive && rng.next_below(2) == 0) {
      const std::uint32_t seq = next[node]++;
      m.find_or_insert(id(seq)) = seq;
      ref[id(seq)] = seq;
    } else if (oldest[node] != next[node]) {
      // Completions arrive out of order: retire a random live call, and
      // advance the oldest past calls already gone.
      const std::uint32_t seq =
          oldest[node] + rng.next_below(next[node] - oldest[node]);
      ASSERT_EQ(m.erase(id(seq)), ref.erase(id(seq)) == 1) << "op " << op;
      while (oldest[node] != next[node] && !ref.contains(id(oldest[node]))) {
        ++oldest[node];
      }
    }
    peak_buckets = std::max(peak_buckets, m.bucket_count());
    if (op % 1'000 == 0) {
      ASSERT_EQ(m.size(), ref.size());
      for (const auto& [k, v] : ref) ASSERT_EQ(value_of(m, k), v);
    }
  }
  EXPECT_LE(peak_buckets, 4 * kNodes * kLive);
}

}  // namespace
}  // namespace now::sim
