// Tests for now::exp — seed derivation, the sweep runner (its threads,
// ordering and exception contract), and per-run isolation of
// process-wide state.
#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exp/run_context.hpp"
#include "exp/runner.hpp"
#include "exp/seed.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/random.hpp"

namespace {

using namespace now;

// ---------------------------------------------------------------------------
// derive_seed

// Golden values pin the derivation scheme forever: any change to the mixer
// silently reseeds every experiment in the repo, so it must be loud.
TEST(DeriveSeed, GoldenValues) {
  EXPECT_EQ(exp::derive_seed(0, 0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(exp::derive_seed(0, 1), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(exp::derive_seed(1, 0), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(exp::derive_seed(1, 1), 0xbeeb8da1658eec67ULL);
  EXPECT_EQ(exp::derive_seed(1, 7), 0x85e7bb0f12278575ULL);
  EXPECT_EQ(exp::derive_seed(42, 3), 0x581ce1ff0e4ae394ULL);
  EXPECT_EQ(exp::derive_seed(0xdeadbeefULL, 1000000),
            0xa9f301d8d37d23a7ULL);
}

TEST(DeriveSeed, IsConstexpr) {
  static_assert(exp::derive_seed(1, 0) == 0x910a2dec89025cc1ULL);
}

TEST(DeriveSeed, DistinctAcrossIndicesAndBases) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ULL, 1ULL, 2ULL, 42ULL, ~0ULL}) {
    for (std::uint64_t i = 0; i < 1000; ++i) {
      seen.insert(exp::derive_seed(base, i));
    }
  }
  EXPECT_EQ(seen.size(), 5u * 1000u);
}

TEST(DeriveSeed, NeverZero) {
  // Components treat seed 0 as "derive for me"; the runner must never
  // hand one out.  (Exhaustive search is impossible; spot-check a spread.)
  for (std::uint64_t base = 0; base < 64; ++base) {
    for (std::uint64_t i = 0; i < 4096; ++i) {
      EXPECT_NE(exp::derive_seed(base, i), 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// run_sweep

// The core determinism contract: the result vector is a pure function of
// (base_seed, index) and therefore invariant under the jobs count.
TEST(RunSweep, ResultsInvariantUnderJobs) {
  const auto task = [](exp::RunContext& ctx) {
    // A little simulated "work" driven entirely by the derived seed.
    sim::Pcg32 rng(ctx.seed);
    std::uint64_t acc = ctx.task_index;
    for (int i = 0; i < 1000; ++i) acc = acc * 31 + rng.next_below(1 << 20);
    return acc;
  };
  const auto serial = exp::run_sweep(40, task, {.jobs = 1, .base_seed = 7});
  const auto par = exp::run_sweep(40, task, {.jobs = 8, .base_seed = 7});
  EXPECT_EQ(serial, par);
}

// Metrics recorded through the plain obs::metrics() entry point inside a
// task land in the task's private registry — and the dumps, like the
// results, are byte-identical between serial and parallel execution.
TEST(RunSweep, MetricsDumpsInvariantUnderJobs) {
  const auto task = [](exp::RunContext& ctx) {
    EXPECT_EQ(&obs::metrics(), &ctx.metrics);
    sim::Pcg32 rng(ctx.seed);
    std::uint64_t ops = 0;
    sim::Summary latency;
    const obs::Collector report("exp.test", [&](obs::Sink& s) {
      s.counter("ops", ops);
      s.summary("latency", latency);
    });
    for (int i = 0; i < 200; ++i) {
      ++ops;
      latency.add(static_cast<double>(rng.next_below(1000)));
    }
    return ctx.metrics.dump_json();
  };
  const auto serial = exp::run_sweep(16, task, {.jobs = 1, .base_seed = 3});
  const auto par = exp::run_sweep(16, task, {.jobs = 8, .base_seed = 3});
  EXPECT_EQ(serial, par);
  // And distinct indices really did get distinct seeds / data.
  EXPECT_NE(serial[0], serial[1]);
}

TEST(RunSweep, SeedsMatchDeriveSeedWithFirstIndex) {
  exp::SweepOptions opt;
  opt.jobs = 2;
  opt.base_seed = 99;
  opt.first_index = 10;
  const auto seeds = exp::run_sweep(
      5, [](exp::RunContext& ctx) { return ctx.seed; }, opt);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(seeds[i], exp::derive_seed(99, 10 + i));
  }
}

TEST(RunSweep, WallTimesRecordedPerTask) {
  std::vector<double> wall;
  exp::SweepOptions opt;
  opt.jobs = 4;
  opt.wall_ms = &wall;
  const auto r = exp::run_sweep(
      6, [](exp::RunContext& ctx) { return ctx.task_index; }, opt);
  ASSERT_EQ(wall.size(), 6u);
  for (double w : wall) EXPECT_GE(w, 0.0);
  for (std::size_t i = 0; i < r.size(); ++i) EXPECT_EQ(r[i], i);
}

TEST(RunSweep, EffectiveJobs) {
  EXPECT_GE(exp::effective_jobs(0), 1u);  // 0 = hardware concurrency
  EXPECT_EQ(exp::effective_jobs(1), 1u);
  EXPECT_EQ(exp::effective_jobs(7), 7u);
}

// ---------------------------------------------------------------------------
// The sweep's pool of worker threads: at jobs > 1 they share one counter

// Runs an n-point sweep at jobs = 4 and checks that each index ran once and
// that its result landed at its own index.
void expect_every_index_once(std::size_t n) {
  std::vector<std::atomic<int>> hits(n);
  const auto r = exp::run_sweep(
      n,
      [&](exp::RunContext& ctx) {
        hits[ctx.task_index].fetch_add(1);
        return ctx.task_index;
      },
      {.jobs = 4});
  ASSERT_EQ(r.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "n " << n << ", index " << i;
    ASSERT_EQ(r[i], i);
  }
}

// Fewer points than threads, and more points than threads (tiny tasks
// stress the shared counter).
TEST(Pool, RunsEveryIndexExactlyOnce) {
  expect_every_index_once(3);
  expect_every_index_once(2000);
}

// An empty sweep and a single point, at jobs > 1.
TEST(Pool, ZeroAndSingleTaskBatches) {
  expect_every_index_once(0);
  expect_every_index_once(1);
}

// Indices 3..7 all throw; the caller sees index 3's exception under any
// interleaving of the threads.
TEST(RunSweep, ExceptionFromLowestIndexPropagates) {
  try {
    exp::run_sweep(8,
                   [](exp::RunContext& ctx) -> int {
                     if (ctx.task_index >= 3) {
                       throw std::runtime_error(
                           "task " + std::to_string(ctx.task_index));
                     }
                     return 0;
                   },
                   {.jobs = 4});
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3");
  }
}

// At jobs > 1 a failure does not cancel the sweep: every task still runs,
// then the lowest failing index's exception surfaces.  More tasks fail
// than there are threads, so a thread that quit on its first failure
// would leave tasks unrun.
TEST(RunSweep, FailureDoesNotCancelOtherTasks) {
  std::atomic<int> ran{0};
  try {
    exp::run_sweep(64,
                   [&](exp::RunContext& ctx) -> int {
                     ran.fetch_add(1);
                     const std::size_t i = ctx.task_index;
                     if (i % 5 == 2) {
                       throw std::runtime_error("task " + std::to_string(i));
                     }
                     return 0;
                   },
                   {.jobs = 4});
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 2");
  }
  EXPECT_EQ(ran.load(), 64);
}

// At jobs = 1 the sweep is the plain serial loop: it stops at the first
// failure.
TEST(RunSweep, SerialSweepStopsAtFirstFailure) {
  int ran = 0;
  EXPECT_THROW(exp::run_sweep(8,
                              [&](exp::RunContext& ctx) -> int {
                                ++ran;
                                if (ctx.task_index == 2) {
                                  throw std::logic_error("boom");
                                }
                                return 0;
                              },
                              {.jobs = 1}),
               std::logic_error);
  EXPECT_EQ(ran, 3);
}

// ---------------------------------------------------------------------------
// ScopedRunContext isolation

TEST(RunContext, InstallsAndRestoresThreadState) {
  EXPECT_EQ(exp::current_context(), nullptr);
  obs::MetricsRegistry& process = obs::metrics();
  {
    exp::RunContext ctx(5, 2);
    exp::ScopedRunContext scope(ctx);
    EXPECT_EQ(exp::current_context(), &ctx);
    EXPECT_EQ(&obs::metrics(), &ctx.metrics);
    EXPECT_EQ(&obs::tracer(), &ctx.tracer);
    {
      exp::RunContext inner(5, 3);
      exp::ScopedRunContext nested(inner);
      EXPECT_EQ(exp::current_context(), &inner);
      EXPECT_EQ(&obs::metrics(), &inner.metrics);
    }
    EXPECT_EQ(exp::current_context(), &ctx);  // nesting restores
    EXPECT_EQ(&obs::metrics(), &ctx.metrics);
  }
  EXPECT_EQ(exp::current_context(), nullptr);
  EXPECT_EQ(&obs::metrics(), &process);
}

TEST(RunContext, ConcurrentRunsKeepPrivateMetrics) {
  // Two threads, each inside its own context, report at the same paths
  // through a collector and a native gauge; each run's registry must hold
  // only its own values (no shared registry, no summed collectors).
  constexpr int kPerRun = 50'000;
  auto body = [](exp::RunContext& ctx, std::uint64_t* seen) {
    exp::ScopedRunContext scope(ctx);
    std::uint64_t count = 0;
    const obs::Collector report(
        "exp.isolation", [&](obs::Sink& s) { s.counter("count", count); });
    obs::Gauge& level = obs::metrics().gauge("exp.isolation.level");
    for (int i = 0; i < kPerRun; ++i) {
      ++count;
      level.set(static_cast<double>(ctx.task_index + 1));
    }
    // Read while `report` is live: a collector drops out when it dies.
    *seen = obs::metrics().find<std::uint64_t>("exp.isolation.count")
                .value_or(0);
  };
  exp::RunContext a(1, 0), b(1, 1);
  std::uint64_t seen_a = 0, seen_b = 0;
  std::thread ta(body, std::ref(a), &seen_a);
  std::thread tb(body, std::ref(b), &seen_b);
  ta.join();
  tb.join();
  EXPECT_EQ(seen_a, static_cast<std::uint64_t>(kPerRun));
  EXPECT_EQ(seen_b, static_cast<std::uint64_t>(kPerRun));
  EXPECT_EQ(a.metrics.find<double>("exp.isolation.level"), 1.0);
  EXPECT_EQ(b.metrics.find<double>("exp.isolation.level"), 2.0);
  EXPECT_FALSE(obs::metrics().find<double>("exp.isolation.level"));
}

}  // namespace
