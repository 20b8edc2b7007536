// Tests for now::exp — seed derivation, the work-stealing pool, the
// sweep runner, and per-run isolation of process-wide state.
#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exp/pool.hpp"
#include "exp/run_context.hpp"
#include "exp/runner.hpp"
#include "exp/seed.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/log.hpp"
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
// WorkStealingPool

TEST(Pool, EffectiveJobs) {
  EXPECT_GE(exp::effective_jobs(0), 1u);  // 0 = hardware concurrency
  EXPECT_EQ(exp::effective_jobs(1), 1u);
  EXPECT_EQ(exp::effective_jobs(7), 7u);
}

TEST(Pool, ConstructDestructWithoutWork) {
  for (int i = 0; i < 8; ++i) {
    exp::WorkStealingPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);
  }  // destructor must join cleanly with no batch ever submitted
}

TEST(Pool, RunsEveryIndexExactlyOnce) {
  exp::WorkStealingPool pool(4);
  constexpr std::size_t kN = 10'000;  // tiny tasks stress dispatch
  std::vector<std::atomic<int>> hits(kN);
  pool.for_each_index(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Pool, ReusableAcrossBatches) {
  exp::WorkStealingPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.for_each_index(100, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 100u * 99u / 2u);
  }
}

TEST(Pool, ZeroAndSingleTaskBatches) {
  exp::WorkStealingPool pool(4);
  std::atomic<int> calls{0};
  pool.for_each_index(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.for_each_index(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(Pool, RethrowsLowestFailingIndex) {
  exp::WorkStealingPool pool(4);
  // Several indices throw; the batch drains and the *lowest* failing
  // index's exception surfaces — deterministic under any interleaving.
  std::atomic<int> ran{0};
  try {
    pool.for_each_index(64, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 7 || i == 13 || i == 50) {
        throw std::runtime_error("task " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 7");
  }
  EXPECT_EQ(ran.load(), 64);  // a failure does not cancel the batch
}

TEST(Pool, UsableAfterAFailedBatch) {
  exp::WorkStealingPool pool(2);
  EXPECT_THROW(pool.for_each_index(
                   4, [](std::size_t) { throw std::logic_error("boom"); }),
               std::logic_error);
  std::atomic<int> ok{0};
  pool.for_each_index(4, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 4);
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
    auto& c = obs::metrics().counter("exp.test.ops");
    sim::Summary latency;
    const obs::Collector report(
        "exp.test", [&](obs::Sink& s) { s.summary("latency", latency); });
    for (int i = 0; i < 200; ++i) {
      c.inc();
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

TEST(RunSweep, ExceptionFromLowestIndexPropagates) {
  EXPECT_THROW(exp::run_sweep(8,
                              [](exp::RunContext& ctx) -> int {
                                if (ctx.task_index >= 3) {
                                  throw std::runtime_error("sim blew up");
                                }
                                return 0;
                              },
                              {.jobs = 4}),
               std::runtime_error);
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
    EXPECT_EQ(sim::thread_log_config(), &ctx.log);
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
  EXPECT_EQ(sim::thread_log_config(), nullptr);
}

TEST(RunContext, LogLevelChangesAreRunLocal) {
  const sim::LogLevel before = sim::log_level();
  {
    exp::RunContext ctx(1, 0);
    exp::ScopedRunContext scope(ctx);
    sim::set_log_level(sim::LogLevel::kTrace);  // routes to ctx.log
    EXPECT_EQ(sim::log_level(), sim::LogLevel::kTrace);
    EXPECT_EQ(ctx.log.level, sim::LogLevel::kTrace);
  }
  EXPECT_EQ(sim::log_level(), before);  // process default untouched
}

TEST(RunContext, ConcurrentRunsKeepPrivateMetrics) {
  // Two threads, each inside its own context, hammer the same metric path;
  // the counts must stay per-run (no shared registry, no lost updates).
  constexpr int kPerRun = 50'000;
  auto body = [](exp::RunContext& ctx) {
    exp::ScopedRunContext scope(ctx);
    auto& c = obs::metrics().counter("exp.isolation.count");
    for (int i = 0; i < kPerRun; ++i) c.inc();
  };
  exp::RunContext a(1, 0), b(1, 1);
  std::thread ta(body, std::ref(a));
  std::thread tb(body, std::ref(b));
  ta.join();
  tb.join();
  EXPECT_EQ(a.metrics.find<std::uint64_t>("exp.isolation.count"),
            static_cast<std::uint64_t>(kPerRun));
  EXPECT_EQ(b.metrics.find<std::uint64_t>("exp.isolation.count"),
            static_cast<std::uint64_t>(kPerRun));
  EXPECT_FALSE(obs::metrics().find<std::uint64_t>("exp.isolation.count"));
}

}  // namespace
