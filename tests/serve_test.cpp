// Tests for now::serve — arrival schedules (golden sequences), think-time
// distributions, the diurnal curve, SLO accounting on hand-computed
// latency sets, the serving workload end-to-end against real backends,
// the central server's cold restart, and --jobs invariance of a full
// serving sweep.
#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "exp/grid.hpp"
#include "exp/runner.hpp"
#include "serve/arrivals.hpp"
#include "serve/request_mix.hpp"
#include "serve/slo.hpp"
#include "serve/workload.hpp"
#include "xfs/central_server.hpp"

namespace now {
namespace {

// ---------------------------------------------------------------------------
// ClientPopulation: arrivals

// Golden sequences pin the arrival derivation forever: any change to the
// stream layout, the thinning loop, or the rounding silently reseeds
// every serving experiment in the repo, so it must be loud.  Values are
// nanosecond timestamps from seed 42, 4 clients, 2 req/s aggregate,
// 10 s horizon.
TEST(ClientPopulation, GoldenArrivalSequence) {
  serve::PopulationParams p;
  p.clients = 4;
  p.open_fraction = 1.0;
  p.offered_per_sec = 2.0;
  p.horizon = 10 * sim::kSecond;
  serve::ClientPopulation pop(p, 42);
  const std::vector<sim::SimTime> c0{901205343LL,  2803712043LL,
                                     2858971697LL, 4350025103LL,
                                     5351615006LL, 7935238555LL,
                                     8917817182LL};
  const std::vector<sim::SimTime> c1{3327153603LL, 4414105178LL,
                                     4467632664LL, 9193976802LL,
                                     9436048160LL};
  EXPECT_EQ(pop.arrivals(0), c0);
  EXPECT_EQ(pop.arrivals(1), c1);
}

TEST(ClientPopulation, GoldenArrivalSequenceDiurnal) {
  serve::PopulationParams p;
  p.clients = 4;
  p.open_fraction = 1.0;
  p.offered_per_sec = 2.0;
  p.horizon = 10 * sim::kSecond;
  p.diurnal.amplitude = 0.8;
  p.diurnal.period = 4 * sim::kSecond;
  serve::ClientPopulation pop(p, 42);
  const std::vector<sim::SimTime> c0{500669635LL,  1588317609LL,
                                     2416680613LL, 4408465864LL,
                                     4954342879LL, 5864745497LL,
                                     8020811666LL};
  EXPECT_EQ(pop.arrivals(0), c0);
}

TEST(ClientPopulation, ArrivalsAreCallOrderIndependent) {
  serve::PopulationParams p;
  p.clients = 8;
  p.offered_per_sec = 40.0;
  p.horizon = 5 * sim::kSecond;
  serve::ClientPopulation a(p, 7);
  serve::ClientPopulation b(p, 7);
  // a asks 0..7, b asks 7..0, twice: every answer must match.
  std::vector<std::vector<sim::SimTime>> fwd, rev(8);
  for (std::uint32_t c = 0; c < 8; ++c) fwd.push_back(a.arrivals(c));
  for (std::uint32_t c = 8; c-- > 0;) rev[c] = b.arrivals(c);
  EXPECT_EQ(fwd, std::vector<std::vector<sim::SimTime>>(rev));
  for (std::uint32_t c = 0; c < 8; ++c) {
    EXPECT_EQ(a.arrivals(c), fwd[c]) << "re-materialization drifted";
  }
}

TEST(ClientPopulation, ArrivalsSortedAndInsideHorizon) {
  serve::PopulationParams p;
  p.clients = 4;
  p.offered_per_sec = 200.0;
  p.horizon = 2 * sim::kSecond;
  serve::ClientPopulation pop(p, 3);
  std::size_t total = 0;
  for (std::uint32_t c = 0; c < pop.clients(); ++c) {
    const auto a = pop.arrivals(c);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    for (const sim::SimTime t : a) EXPECT_LT(t, p.horizon);
    total += a.size();
  }
  // 200/s over 2 s => ~400 arrivals; Poisson, so allow a wide band.
  EXPECT_GT(total, 300u);
  EXPECT_LT(total, 500u);
}

TEST(ClientPopulation, OpenFractionSplitsThePopulation) {
  serve::PopulationParams p;
  p.clients = 10;
  p.open_fraction = 0.5;
  serve::ClientPopulation pop(p, 1);
  EXPECT_EQ(pop.open_clients(), 5u);
  EXPECT_TRUE(pop.is_open(0));
  EXPECT_TRUE(pop.is_open(4));
  EXPECT_FALSE(pop.is_open(5));
  EXPECT_TRUE(pop.arrivals(7).empty()) << "closed clients have no schedule";
}

// ---------------------------------------------------------------------------
// Streaming arrivals: lazy == materialized, merge order, bounded state

// The tentpole invariant: collecting every open client's lazy stream
// through the k-way merge yields exactly the per-client materialized
// schedules, interleaved in (time, client) order — for a mixed
// open/closed population under a diurnal curve.  If this drifts, the
// streaming path has silently reseeded the serving experiments.
TEST(MergedArrivals, MatchesMaterializedSchedules) {
  serve::PopulationParams p;
  p.clients = 8;
  p.open_fraction = 0.5;  // clients 0..3 open, 4..7 closed
  p.offered_per_sec = 120.0;
  p.horizon = 3 * sim::kSecond;
  p.diurnal.amplitude = 0.7;
  p.diurnal.period = 2 * sim::kSecond;
  serve::ClientPopulation pop(p, 91);

  std::vector<serve::Arrival> expected;
  for (std::uint32_t c = 0; c < pop.clients(); ++c) {
    for (const sim::SimTime t : pop.arrivals(c)) expected.push_back({t, c});
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const serve::Arrival& a, const serve::Arrival& b) {
                     return a.time != b.time ? a.time < b.time
                                             : a.client < b.client;
                   });
  ASSERT_GT(expected.size(), 100u);

  serve::MergedArrivals merged(pop);
  EXPECT_EQ(merged.streams(), pop.open_clients());
  std::vector<serve::Arrival> got;
  while (const auto a = merged.next()) got.push_back(*a);
  EXPECT_EQ(merged.streams(), 0u);
  EXPECT_EQ(got, expected);
}

TEST(MergedArrivals, MatchesMaterializedSchedulesUnderChurn) {
  serve::PopulationParams p;
  p.clients = 6;
  p.open_fraction = 1.0;
  p.offered_per_sec = 90.0;
  p.horizon = 4 * sim::kSecond;
  p.diurnal.amplitude = 0.5;
  p.diurnal.period = 2 * sim::kSecond;
  p.sessions.mean_on = 500 * sim::kMillisecond;
  p.sessions.mean_off = 300 * sim::kMillisecond;
  serve::ClientPopulation pop(p, 37);

  std::vector<serve::Arrival> expected;
  for (std::uint32_t c = 0; c < pop.clients(); ++c) {
    for (const sim::SimTime t : pop.arrivals(c)) expected.push_back({t, c});
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const serve::Arrival& a, const serve::Arrival& b) {
                     return a.time != b.time ? a.time < b.time
                                             : a.client < b.client;
                   });
  ASSERT_GT(expected.size(), 30u);

  serve::MergedArrivals merged(pop);
  std::vector<serve::Arrival> got;
  while (const auto a = merged.next()) got.push_back(*a);
  EXPECT_EQ(got, expected);
}

// Enabling churn draws its session timeline from a *separate* RNG stream,
// so it may only remove arrivals — every surviving timestamp must appear,
// unmoved, in the churn-free schedule.
TEST(ClientPopulation, ChurnOnlyFiltersArrivals) {
  serve::PopulationParams p;
  p.clients = 4;
  p.offered_per_sec = 80.0;
  p.horizon = 5 * sim::kSecond;
  serve::ClientPopulation plain(p, 57);
  p.sessions.mean_on = sim::kSecond;
  p.sessions.mean_off = 700 * sim::kMillisecond;
  serve::ClientPopulation churned(p, 57);

  std::size_t kept = 0, dropped = 0;
  for (std::uint32_t c = 0; c < p.clients; ++c) {
    const auto base = plain.arrivals(c);
    const auto fil = churned.arrivals(c);
    EXPECT_LE(fil.size(), base.size());
    for (const sim::SimTime t : fil) {
      EXPECT_TRUE(std::binary_search(base.begin(), base.end(), t))
          << "churn moved an arrival instead of filtering";
    }
    kept += fil.size();
    dropped += base.size() - fil.size();
  }
  EXPECT_GT(kept, 0u) << "all sessions empty — churn params degenerate";
  EXPECT_GT(dropped, 0u) << "churn filtered nothing";
}

TEST(SessionTimeline, DisabledYieldsOneFullHorizonSession) {
  serve::PopulationParams p;
  p.clients = 2;
  p.horizon = 7 * sim::kSecond;
  serve::ClientPopulation pop(p, 3);
  serve::SessionTimeline tl = pop.sessions(1);
  const auto s = tl.next();
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->login, 0);
  EXPECT_EQ(s->logout, p.horizon);
  EXPECT_FALSE(tl.next().has_value());
}

TEST(SessionTimeline, IntervalsAreOrderedDisjointAndReplayable) {
  serve::PopulationParams p;
  p.clients = 3;
  p.horizon = 20 * sim::kSecond;
  p.sessions.mean_on = sim::kSecond;
  p.sessions.mean_off = sim::kSecond;
  p.diurnal.amplitude = 0.6;
  p.diurnal.period = 5 * sim::kSecond;
  serve::ClientPopulation pop(p, 101);
  for (std::uint32_t c = 0; c < p.clients; ++c) {
    std::vector<serve::Session> a, b;
    serve::SessionTimeline t1 = pop.sessions(c);
    serve::SessionTimeline t2 = pop.sessions(c);
    while (const auto s = t1.next()) a.push_back(*s);
    while (const auto s = t2.next()) b.push_back(*s);
    ASSERT_FALSE(a.empty());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].login, b[i].login) << "timeline is not replayable";
      EXPECT_EQ(a[i].logout, b[i].logout);
      EXPECT_LT(a[i].login, a[i].logout);
      EXPECT_LE(a[i].logout, p.horizon);
      if (i > 0) EXPECT_GE(a[i].login, a[i - 1].logout);
    }
  }
}

// 2048 streaming clients at building rates: the merge must hold its
// bounded O(clients) state (streams() never exceeds the population) and
// deliver a sane Poisson count in order.  This is the smoke test that the
// schedule is never materialized — at this rate a vector-of-vectors path
// would hold every arrival at once.
TEST(MergedArrivals, TwoThousandClientStreamStaysBounded) {
  serve::PopulationParams p;
  p.clients = 2048;
  p.offered_per_sec = 20'000.0;
  p.horizon = 2 * sim::kSecond;
  serve::ClientPopulation pop(p, 77);
  serve::MergedArrivals merged(pop);
  EXPECT_EQ(merged.streams(), 2048u);

  std::uint64_t n = 0;
  sim::SimTime prev = 0;
  while (const auto a = merged.next()) {
    EXPECT_GE(a->time, prev);
    EXPECT_LT(a->time, p.horizon);
    EXPECT_LT(a->client, 2048u);
    EXPECT_LE(merged.streams(), 2048u);
    prev = a->time;
    ++n;
  }
  // 20k/s over 2 s => ~40k arrivals.
  EXPECT_GT(n, 38'000u);
  EXPECT_LT(n, 42'000u);
}

// ---------------------------------------------------------------------------
// Think times

TEST(ClientPopulation, ThinkTimeMeansMatchAcrossDistributions) {
  for (const serve::ThinkDist d :
       {serve::ThinkDist::kExponential, serve::ThinkDist::kPareto,
        serve::ThinkDist::kLognormal}) {
    serve::PopulationParams p;
    p.clients = 1;
    p.open_fraction = 0.0;
    p.think = d;
    p.think_mean_ms = 50.0;
    serve::ClientPopulation pop(p, 11);
    double sum_ms = 0;
    const int n = 20'000;
    for (int i = 0; i < n; ++i) {
      const sim::Duration t = pop.think_time(0);
      EXPECT_GE(t, 1);
      sum_ms += sim::to_ms(t);
    }
    // Heavy tails converge slowly; 20 % is tight enough to catch a wrong
    // parameterization (they would be off by x2 or more).
    EXPECT_NEAR(sum_ms / n, 50.0, 10.0) << serve::to_string(d);
  }
}

TEST(ClientPopulation, ParetoIsHeavierTailedThanExponential) {
  serve::PopulationParams p;
  p.clients = 1;
  p.open_fraction = 0.0;
  p.think_mean_ms = 50.0;
  p.think = serve::ThinkDist::kExponential;
  serve::ClientPopulation expo(p, 5);
  p.think = serve::ThinkDist::kPareto;
  serve::ClientPopulation pareto(p, 5);
  double expo_max = 0, pareto_max = 0;
  for (int i = 0; i < 20'000; ++i) {
    expo_max = std::max(expo_max, sim::to_ms(expo.think_time(0)));
    pareto_max = std::max(pareto_max, sim::to_ms(pareto.think_time(0)));
  }
  EXPECT_GT(pareto_max, expo_max);
}

// ---------------------------------------------------------------------------
// DiurnalCurve

TEST(DiurnalCurve, FlatWithoutAmplitude) {
  serve::DiurnalCurve c;
  EXPECT_DOUBLE_EQ(c.multiplier(0), 1.0);
  EXPECT_DOUBLE_EQ(c.multiplier(7 * sim::kHour), 1.0);
  EXPECT_DOUBLE_EQ(c.peak(), 1.0);
}

TEST(DiurnalCurve, PeakBoundsTheMultiplier) {
  serve::DiurnalCurve c;
  c.amplitude = 0.6;
  c.period = 24 * sim::kHour;
  double lo = 1e9, hi = 0;
  for (int h = 0; h < 48; ++h) {
    const double m = c.multiplier(h * sim::kHour / 2);
    EXPECT_GE(m, 0.0);
    EXPECT_LE(m, c.peak() + 1e-12);
    lo = std::min(lo, m);
    hi = std::max(hi, m);
  }
  EXPECT_NEAR(hi, 1.6, 1e-6);  // daytime peak
  EXPECT_NEAR(lo, 0.4, 1e-6);  // night trough
}

// ---------------------------------------------------------------------------
// RequestMix

TEST(RequestMix, WeightsShapeTheDraw) {
  serve::RequestClass a, b;
  a.name = "a";
  a.weight = 3.0;
  b.name = "b";
  b.weight = 1.0;
  serve::RequestMix mix({a, b}, 9);
  int hits_a = 0;
  const int n = 10'000;
  for (int i = 0; i < n; ++i) {
    if (mix.pick_class(0) == 0) ++hits_a;
  }
  EXPECT_NEAR(static_cast<double>(hits_a) / n, 0.75, 0.03);
}

TEST(RequestMix, DrawsAreClientOrderIndependent) {
  serve::RequestClass a;
  a.name = "a";
  a.working_set = 100;
  serve::RequestMix m1({a}, 13);
  serve::RequestMix m2({a}, 13);
  // m1 touches client 0 first, m2 touches client 1 first: each client's
  // stream must not care who went first.
  std::vector<std::uint64_t> m1c0, m1c1, m2c0, m2c1;
  for (int i = 0; i < 50; ++i) m1c0.push_back(m1.pick_block(0, 0));
  for (int i = 0; i < 50; ++i) m1c1.push_back(m1.pick_block(0, 1));
  for (int i = 0; i < 50; ++i) m2c1.push_back(m2.pick_block(0, 1));
  for (int i = 0; i < 50; ++i) m2c0.push_back(m2.pick_block(0, 0));
  EXPECT_EQ(m1c0, m2c0);
  EXPECT_EQ(m1c1, m2c1);
  EXPECT_NE(m1c0, m1c1) << "clients share a stream";
}

// ---------------------------------------------------------------------------
// SloTracker

// Hand-computed: SLO 10 ms; successes at 1, 5, 9, 11, 20 ms and one
// backend failure at 2 ms.  Six completions, three SLO-meeting (1, 5, 9 —
// 11 and 20 are late, the failure can never meet it): attainment 1/2.
TEST(SloTracker, HandComputedAttainment) {
  serve::SloTracker slo("t");
  const std::size_t cls = slo.add_class("rpc", 10 * sim::kMillisecond);
  for (const int ms : {1, 5, 9, 11, 20}) {
    slo.record(cls, ms * sim::kMillisecond, true);
  }
  slo.record(cls, 2 * sim::kMillisecond, false);

  const serve::SloClassReport r = slo.report(cls, 2 * sim::kSecond);
  EXPECT_EQ(r.completed, 6u);
  EXPECT_EQ(r.ok, 5u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(r.slo_met, 3u);
  EXPECT_DOUBLE_EQ(r.attainment, 0.5);
  // goodput judges the interval: 3 SLO-meeting successes over 2 s.
  EXPECT_DOUBLE_EQ(r.goodput_per_sec, 1.5);
  // Latency stats come from a 2 %-bin histogram (exact mean, ~2 %
  // quantiles) with nearest-rank quantiles: rank floor(q*(n-1))+1, so on
  // these six samples {1, 2, 5, 9, 11, 20} p50 is the 3rd smallest (5 ms)
  // and p99/p999 the 5th (11 ms).
  EXPECT_NEAR(r.mean_ms, 8.0, 0.2);
  EXPECT_NEAR(r.p50_ms, 5.0, 0.15);
  EXPECT_NEAR(r.p99_ms, 11.0, 0.3);
  EXPECT_NEAR(r.p999_ms, 11.0, 0.3);
  EXPECT_NEAR(r.max_ms, 20.0, 0.5);

  const serve::SloClassReport all = slo.overall(2 * sim::kSecond);
  EXPECT_EQ(all.completed, 6u);
  EXPECT_DOUBLE_EQ(all.attainment, 0.5);
}

TEST(SloTracker, EmptyTrackerReportsPerfectAttainment) {
  serve::SloTracker slo("t");
  const std::size_t cls = slo.add_class("idle", sim::kMillisecond);
  EXPECT_DOUBLE_EQ(slo.report(cls, sim::kSecond).attainment, 1.0);
  EXPECT_EQ(slo.completed(), 0u);
}

TEST(SloTracker, MirrorsIntoObsRegistry) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry* prev = obs::set_thread_metrics(&reg);
  {
    serve::SloTracker slo("serve");
    const std::size_t cls = slo.add_class("read", 25 * sim::kMillisecond);
    slo.record(cls, 5 * sim::kMillisecond, true);
    slo.record(cls, 50 * sim::kMillisecond, true);
    slo.record(cls, 1 * sim::kMillisecond, false);

    EXPECT_EQ(reg.find<std::uint64_t>("serve.read.completed"), 3u);
    EXPECT_EQ(reg.find<std::uint64_t>("serve.read.failed"), 1u);
    EXPECT_EQ(reg.find<std::uint64_t>("serve.read.slo_miss"), 2u);
    // Latency distributions are discoverable like every other kind.
    const auto lat = reg.find<sim::Histogram>("serve.read.latency_us");
    ASSERT_TRUE(lat);
    EXPECT_EQ(lat->count(), 3u);
    EXPECT_FALSE(reg.find<sim::Histogram>("serve.read.completed"))
        << "find<Histogram> must not alias other kinds";
  }
  // The tracker reported its own shards; once it is gone, so are they.
  EXPECT_FALSE(reg.find<std::uint64_t>("serve.read.completed"));
  obs::set_thread_metrics(prev);
}

// ---------------------------------------------------------------------------
// exp::Grid

TEST(Grid, RoundTripsFlatAndCoords) {
  exp::Grid g;
  g.add("backend", 2);
  g.add("fault", 3);
  g.add("load", 4);
  EXPECT_EQ(g.size(), 24u);
  EXPECT_EQ(g.dims(), 3u);
  EXPECT_EQ(g.extent(1), 3u);
  for (std::size_t i = 0; i < g.size(); ++i) {
    const auto c = g.coords(i);
    EXPECT_EQ(g.flat(c), i);
  }
  // Row-major: the last dimension is fastest.
  EXPECT_EQ(g.coords(0), (std::vector<std::size_t>{0, 0, 0}));
  EXPECT_EQ(g.coords(1), (std::vector<std::size_t>{0, 0, 1}));
  EXPECT_EQ(g.coords(4), (std::vector<std::size_t>{0, 1, 0}));
  EXPECT_EQ(g.coords(12), (std::vector<std::size_t>{1, 0, 0}));
}

TEST(Grid, EmptyGridHasOnePoint) {
  exp::Grid g;
  EXPECT_EQ(g.size(), 1u);
  EXPECT_TRUE(g.coords(0).empty());
  EXPECT_EQ(g.flat({}), 0u);
}

// ---------------------------------------------------------------------------
// Central server cold restart (satellite)

TEST(CentralColdRestart, CrashDropsTheServerCache) {
  ClusterConfig cfg;
  cfg.workstations = 4;
  cfg.with_glunix = false;
  Cluster c(cfg);
  xfs::CentralFsParams p;
  p.client_cache_blocks = 8;
  std::vector<os::Node*> clients{&c.node(1), &c.node(2), &c.node(3)};
  xfs::CentralServerFs fs(c.rpc(), c.node(0), clients, p);
  fs.start();
  c.faults().attach_central(&fs);

  int ok = 0;
  fs.write(1, 7, [&](bool s) { ok += s; });
  c.run();
  fs.read(2, 7, [&](bool s) { ok += s; });
  c.run();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(fs.stats().server_mem_hits, 1u)
      << "pre-crash read must hit the warm server cache";
  EXPECT_EQ(fs.stats().server_disk_reads, 0u);

  c.faults().crash_node(0);
  c.faults().restart_node(0);
  EXPECT_EQ(fs.stats().cold_restarts, 1u);

  // Same block, a client that never cached it: the server cache died with
  // the machine, so this read pays the disk.
  fs.read(3, 7, [&](bool s) { ok += s; });
  c.run();
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(fs.stats().server_mem_hits, 1u);
  EXPECT_EQ(fs.stats().server_disk_reads, 1u)
      << "post-restart read must be a cold miss";
}

// ---------------------------------------------------------------------------
// ServeWorkload end-to-end

TEST(ServeWorkload, OpenArrivalsAgainstXfsCompleteAndMeetSlo) {
  exp::RunContext ctx(21, 0);
  exp::ScopedRunContext scope(ctx);
  ClusterConfig cfg;
  cfg.workstations = 5;
  cfg.with_glunix = false;
  cfg.with_xfs = true;
  cfg.xfs.client_cache_blocks = 32;
  cfg.run = &ctx;
  Cluster c(cfg);

  serve::ServeConfig sc;
  sc.population.clients = 4;
  sc.population.open_fraction = 1.0;
  sc.population.offered_per_sec = 40.0;
  sc.population.horizon = 2 * sim::kSecond;
  serve::RequestClass rd;
  rd.name = "read";
  rd.op = serve::RequestOp::kFileRead;
  rd.slo = 25 * sim::kMillisecond;
  rd.working_set = 200;
  sc.classes = {rd};
  sc.client_nodes = {1, 2, 3, 4};
  sc.seed = ctx.seed;

  serve::Backends b;
  b.xfs = &c.fs();
  serve::ServeWorkload w(c.engine(), b, sc);
  w.start();
  c.run_until(4 * sim::kSecond);

  const serve::ServeTotals t = w.totals();
  EXPECT_GT(t.arrivals, 50u);
  EXPECT_EQ(t.open_arrivals, t.arrivals);
  EXPECT_EQ(t.completed, t.arrivals) << "everything drains by the deadline";
  EXPECT_EQ(w.in_flight(), 0u);
  const serve::SloClassReport r = w.slo().report(0, sc.population.horizon);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.attainment, 0.95) << "an idle xFS must meet a 25 ms SLO";
}

// A failed xFS op issued by someone else must not be charged to the
// workload: only the workload's own completions say whether its requests
// failed.
TEST(ServeWorkload, ForeignXfsFailureIsNotChargedToTheWorkload) {
  exp::RunContext ctx(23, 0);
  exp::ScopedRunContext scope(ctx);
  ClusterConfig cfg;
  cfg.workstations = 5;
  cfg.with_glunix = false;
  cfg.with_xfs = true;
  cfg.xfs.max_op_retries = 1;           // fail fast once out of patience
  cfg.fault_policy.auto_takeover = false;  // the dead manager stays dead
  cfg.run = &ctx;
  Cluster c(cfg);

  // One open client on node 1 reading block 0, whose manager (node 0)
  // stays up: every workload request can succeed.
  serve::ServeConfig sc;
  sc.population.clients = 1;
  sc.population.open_fraction = 1.0;
  sc.population.offered_per_sec = 20.0;
  sc.population.horizon = 4 * sim::kSecond;
  serve::RequestClass rd;
  rd.name = "read";
  rd.op = serve::RequestOp::kFileRead;
  rd.slo = 25 * sim::kMillisecond;
  rd.working_set = 1;
  sc.classes = {rd};
  sc.client_nodes = {1};
  sc.seed = ctx.seed;
  serve::Backends b;
  b.xfs = &c.fs();
  serve::ServeWorkload w(c.engine(), b, sc);
  w.start();

  // Outside the workload: node 0 reads block 4, whose manager (node 4) is
  // dead and never replaced, so the read exhausts its retry budget.
  ASSERT_EQ(c.fs().manager_of(4), 4u);
  ASSERT_EQ(c.fs().manager_of(0), 0u);
  c.faults().crash_node(4);
  int foreign_done = 0;
  bool foreign_ok = true;
  c.fs().read(0, 4, [&](bool s) {
    ++foreign_done;
    foreign_ok = s;
  });
  c.run_until(2 * sim::kSecond);
  ASSERT_EQ(foreign_done, 1);
  EXPECT_FALSE(foreign_ok);
  EXPECT_EQ(c.fs().stats().failed_ops, 1u);

  // Workload requests keep completing after the foreign failure.
  const std::uint64_t completed_before = w.totals().completed;
  c.run_until(6 * sim::kSecond);
  const serve::ServeTotals t = w.totals();
  EXPECT_GT(t.completed, completed_before);
  EXPECT_EQ(t.completed, t.arrivals);
  const serve::SloClassReport r = w.slo().report(0, sc.population.horizon);
  EXPECT_EQ(r.failed, 0u) << "the foreign failure was charged to a request";
  EXPECT_EQ(r.ok, r.completed);
}

TEST(ServeWorkload, HybridPopulationRunsClosedLoops) {
  sim::Engine eng;
  coopcache::CoopCacheConfig cc;
  cc.clients = 4;
  cc.client_cache_blocks = 32;
  cc.server_cache_blocks = 128;
  cc.seed = 17;
  coopcache::CoopCacheSim coop(cc);

  serve::ServeConfig sc;
  sc.population.clients = 4;
  sc.population.open_fraction = 0.5;  // clients 0,1 open; 2,3 closed
  sc.population.offered_per_sec = 30.0;
  sc.population.think_mean_ms = 40.0;
  sc.population.horizon = 2 * sim::kSecond;
  serve::RequestClass cache;
  cache.name = "cache";
  cache.op = serve::RequestOp::kCacheRead;
  cache.slo = 20 * sim::kMillisecond;
  cache.working_set = 64;
  sc.classes = {cache};
  sc.client_nodes = {0, 1, 2, 3};
  sc.seed = 23;

  serve::Backends b;
  b.coop = &coop;
  serve::ServeWorkload w(eng, b, sc);
  w.start();
  eng.run();

  const serve::ServeTotals t = w.totals();
  EXPECT_GT(t.open_arrivals, 20u);
  EXPECT_GT(t.closed_arrivals, 20u) << "closed loops never started";
  EXPECT_EQ(t.arrivals, t.open_arrivals + t.closed_arrivals);
  EXPECT_EQ(t.completed, t.arrivals);
  EXPECT_EQ(coop.results().reads, t.arrivals);
  EXPECT_EQ(w.slo().report(0, sc.population.horizon).failed, 0u);
}

TEST(ServeWorkload, ComputeClassRunsThroughGlunix) {
  exp::RunContext ctx(31, 0);
  exp::ScopedRunContext scope(ctx);
  ClusterConfig cfg;
  cfg.workstations = 4;
  cfg.glunix.idle_window = sim::kSecond;
  cfg.run = &ctx;
  Cluster c(cfg);

  serve::ServeConfig sc;
  sc.population.clients = 2;
  sc.population.open_fraction = 1.0;
  sc.population.offered_per_sec = 4.0;
  sc.population.horizon = 5 * sim::kSecond;
  serve::RequestClass job;
  job.name = "job";
  job.op = serve::RequestOp::kCompute;
  job.slo = sim::kSecond;
  job.compute_work = 20 * sim::kMillisecond;
  job.compute_memory_bytes = 1 << 20;
  sc.classes = {job};
  sc.client_nodes = {0, 1};
  sc.seed = ctx.seed;

  serve::Backends b;
  b.glunix = &c.glunix();
  serve::ServeWorkload w(c.engine(), b, sc);
  w.start();
  // GLUnix heartbeats tick forever; bound the run instead of draining.
  c.run_until(15 * sim::kSecond);

  const serve::ServeTotals t = w.totals();
  EXPECT_GT(t.arrivals, 5u);
  EXPECT_EQ(t.completed, t.arrivals);
  EXPECT_GT(w.slo().report(0, sc.population.horizon).attainment, 0.9);
}

// ---------------------------------------------------------------------------
// Partitioned serving: lane-confined clients, exact shard merges

// A churned central-backend population on the building fabric, run at
// several --threads values: every statistic the workload reports must be
// identical, because per-lane shards merge with exact integer arithmetic
// and every client's events stay on the lane owning its node.
std::string run_churned_building(unsigned threads) {
  ClusterConfig cfg;
  cfg.workstations = 8;
  cfg.fabric = Fabric::kBuildingNow;
  cfg.building = net::building_now(2, 4, 2.0);
  cfg.with_glunix = false;
  cfg.threads = threads;
  cfg.partitioning = Partitioning::kNodeLocal;
  cfg.seed = 5;
  Cluster c(cfg);

  xfs::CentralFsParams p;
  p.client_cache_blocks = 0;
  std::vector<os::Node*> fsc;
  for (std::uint32_t i = 1; i < 8; ++i) fsc.push_back(&c.node(i));
  xfs::CentralServerFs fs(c.rpc(), c.node(0), fsc, p);
  fs.prewarm(64);
  fs.start();

  serve::ServeConfig sc;
  sc.population.clients = 24;
  sc.population.open_fraction = 1.0;
  sc.population.offered_per_sec = 300.0;
  sc.population.horizon = sim::kSecond;
  sc.population.diurnal.amplitude = 0.5;
  sc.population.diurnal.period = 800 * sim::kMillisecond;
  sc.population.sessions.mean_on = 300 * sim::kMillisecond;
  sc.population.sessions.mean_off = 200 * sim::kMillisecond;
  serve::RequestClass rd;
  rd.name = "read";
  rd.op = serve::RequestOp::kFileRead;
  rd.slo = 25 * sim::kMillisecond;
  rd.working_set = 64;
  sc.classes = {rd};
  for (std::uint32_t i = 1; i < 8; ++i) sc.client_nodes.push_back(i);
  sc.seed = 5;

  serve::Backends b;
  b.central = &fs;
  serve::ServeWorkload w(c.engine(), b, sc, c.parallel_engine());
  w.start();
  c.run_until(1500 * sim::kMillisecond);

  const serve::ServeTotals t = w.totals();
  const serve::SloClassReport all = w.slo().overall(sc.population.horizon);
  const xfs::CentralFsStats st = fs.stats();
  std::ostringstream out;
  out << "arrivals=" << t.arrivals << " completed=" << t.completed
      << " in_flight=" << w.in_flight() << " ok=" << all.ok
      << " slo_met=" << all.slo_met << " mean_us="
      << static_cast<long long>(all.mean_ms * 1000) << " p50_us="
      << static_cast<long long>(all.p50_ms * 1000) << " p99_us="
      << static_cast<long long>(all.p99_ms * 1000) << " max_us="
      << static_cast<long long>(all.max_ms * 1000)
      << " reads=" << st.reads << " mem_hits=" << st.server_mem_hits;
  return out.str();
}

TEST(ServeWorkload, ChurnedBuildingRunIsThreadCountInvariant) {
  const std::string t1 = run_churned_building(1);
  const std::string t2 = run_churned_building(2);
  const std::string t4 = run_churned_building(4);
  EXPECT_NE(t1.find("arrivals="), std::string::npos);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t4);
}

// The live-session headcount is published as an obs gauge; mid-run it
// must agree with the workload's own lane-sharded count and sit strictly
// inside (0, clients) for a churning population.
TEST(ServeWorkload, SessionsActiveGaugeTracksChurn) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry* prev = obs::set_thread_metrics(&reg);
  {
    sim::Engine eng;
    coopcache::CoopCacheConfig cc;
    cc.clients = 4;
    cc.client_cache_blocks = 32;
    cc.server_cache_blocks = 128;
    cc.seed = 17;
    coopcache::CoopCacheSim coop(cc);

    serve::ServeConfig sc;
    sc.population.clients = 16;
    sc.population.open_fraction = 1.0;
    sc.population.offered_per_sec = 100.0;
    sc.population.horizon = 2 * sim::kSecond;
    sc.population.sessions.mean_on = 400 * sim::kMillisecond;
    sc.population.sessions.mean_off = 300 * sim::kMillisecond;
    serve::RequestClass cache;
    cache.name = "cache";
    cache.op = serve::RequestOp::kCacheRead;
    cache.slo = 20 * sim::kMillisecond;
    cache.working_set = 64;
    sc.classes = {cache};
    sc.client_nodes = {0, 1, 2, 3};
    sc.seed = 23;

    serve::Backends b;
    b.coop = &coop;
    serve::ServeWorkload w(eng, b, sc);
    w.start();

    double gauge_mid = -1.0;
    std::uint64_t live_mid = 0;
    eng.schedule_at(sim::kSecond, [&] {
      gauge_mid = *reg.find<double>("serve.sessions_active");
      live_mid = w.sessions_active();
    });
    eng.run();

    EXPECT_EQ(static_cast<std::uint64_t>(gauge_mid), live_mid)
        << "gauge and lane shards disagree";
    EXPECT_GT(live_mid, 0u);
    EXPECT_LT(live_mid, 16u) << "nobody ever logged out at t=1s";
    EXPECT_EQ(w.sessions_active(), 0u) << "all sessions clip to the horizon";
  }
  obs::set_thread_metrics(prev);
}

// ---------------------------------------------------------------------------
// Determinism: a serving sweep is --jobs-invariant, byte for byte.

std::string run_serving_point(exp::RunContext& ctx) {
  ClusterConfig cfg;
  cfg.workstations = 5;
  cfg.with_glunix = false;
  cfg.with_xfs = true;
  cfg.xfs.client_cache_blocks = 32;
  cfg.run = &ctx;
  Cluster c(cfg);

  serve::ServeConfig sc;
  sc.population.clients = 4;
  sc.population.open_fraction = 0.75;
  sc.population.offered_per_sec = 30.0 * (1 + ctx.task_index);
  sc.population.horizon = 2 * sim::kSecond;
  serve::RequestClass rd, wr;
  rd.name = "read";
  rd.op = serve::RequestOp::kFileRead;
  rd.slo = 25 * sim::kMillisecond;
  rd.working_set = 200;
  rd.weight = 0.75;
  wr.name = "write";
  wr.op = serve::RequestOp::kFileWrite;
  wr.slo = 100 * sim::kMillisecond;
  wr.working_set = 200;
  wr.weight = 0.25;
  sc.classes = {rd, wr};
  sc.client_nodes = {1, 2, 3, 4};
  sc.seed = ctx.seed;

  serve::Backends b;
  b.xfs = &c.fs();
  serve::ServeWorkload w(c.engine(), b, sc);
  w.start();
  c.run_until(4 * sim::kSecond);

  const serve::ServeTotals t = w.totals();
  const serve::SloClassReport all = w.slo().overall(sc.population.horizon);
  std::ostringstream out;
  out << "seed=" << ctx.seed << " arrivals=" << t.arrivals << " open="
      << t.open_arrivals << " completed=" << t.completed
      << " slo_met=" << all.slo_met << " p99us="
      << static_cast<long long>(all.p99_ms * 1000) << "\n";
  ctx.metrics.dump_json(out);
  return out.str();
}

TEST(ServeWorkload, SweepIsJobsInvariant) {
  const auto serial =
      exp::run_sweep(3, run_serving_point, {.jobs = 1, .base_seed = 19});
  const auto parallel =
      exp::run_sweep(3, run_serving_point, {.jobs = 4, .base_seed = 19});
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "sweep point " << i;
  }
  EXPECT_NE(serial[0], serial[1]);
}

}  // namespace
}  // namespace now
