// Whole Clusters running concurrently under exp::run_sweep.  This is the
// end-to-end isolation test (and the TSan target in CI): N complete
// simulation stacks — engine, network, OS, xFS, metrics — live on worker
// threads at once, and every observable output must match the serial run
// byte for byte.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "exp/run_context.hpp"
#include "exp/runner.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"

namespace now {
namespace {

// One complete simulation: an xFS cluster serving a seeded random
// read/write mix.  Returns every observable output as one string so the
// jobs=1 / jobs=N comparison is a single EXPECT_EQ per point.
std::string run_xfs_point(exp::RunContext& ctx) {
  ClusterConfig cfg;
  cfg.workstations = 5;
  cfg.with_glunix = false;
  cfg.with_xfs = true;
  cfg.xfs.client_cache_blocks = 32;
  cfg.xfs.segment_blocks = 8;
  cfg.run = &ctx;
  Cluster c(cfg);
  EXPECT_EQ(&c.metrics(), &ctx.metrics);

  sim::Pcg32 rng(ctx.seed);
  int done = 0;
  for (int op = 0; op < 60; ++op) {
    const std::uint32_t node = rng.next_below(5);
    const xfs::BlockId block = rng.next_below(200);
    if (rng.bernoulli(0.5)) {
      c.fs().write(node, block, [&](bool) { ++done; });
    } else {
      c.fs().read(node, block, [&](bool) { ++done; });
    }
    c.run();
  }
  EXPECT_EQ(done, 60);
  // The live Xfs reports into this run's registry, and so does the
  // switched fabric's native per-link gauge.
  EXPECT_EQ(ctx.metrics.find<std::uint64_t>("xfs.reads"),
            c.fs().stats().reads);
  EXPECT_TRUE(ctx.metrics.find<double>("net.link0.queue_us"));

  std::ostringstream out;
  out << "seed=" << ctx.seed << " t=" << c.engine().now()
      << " ops=" << done << "\n";
  ctx.metrics.dump_json(out);
  return out.str();
}

TEST(ExpCluster, ConcurrentClustersMatchSerialByteForByte) {
  const auto serial =
      exp::run_sweep(4, run_xfs_point, {.jobs = 1, .base_seed = 11});
  const auto parallel =
      exp::run_sweep(4, run_xfs_point, {.jobs = 2, .base_seed = 11});
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "sweep point " << i;
  }
  // Distinct seeds produced genuinely different simulations.
  EXPECT_NE(serial[0], serial[1]);
  // Nothing leaked into the process-wide registry.  A native gauge
  // outlives the network that registered it, so a leak would still be
  // here after every Cluster is gone.
  EXPECT_FALSE(obs::metrics().find<double>("net.link0.queue_us"));
}

TEST(ExpCluster, ClusterSeedsFromRunContext) {
  const auto seeds = exp::run_sweep(
      3,
      [](exp::RunContext& ctx) {
        ClusterConfig cfg;
        cfg.workstations = 2;
        cfg.with_glunix = false;
        cfg.run = &ctx;
        Cluster c(cfg);
        return c.config().seed;
      },
      {.jobs = 2, .base_seed = 5});
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(seeds[i], exp::derive_seed(5, i));
  }
}

// Order-independence regression (satellite #4): a sweep whose points share
// one RNG across iterations is order-dependent and silently breaks under
// --jobs N.  The correct pattern — every point constructs its generator
// from ctx.seed alone — survives any execution order, including reversed.
TEST(ExpCluster, PointsAreOrderIndependent) {
  auto point = [](std::uint64_t seed) {
    sim::Pcg32 rng(seed);
    std::uint64_t acc = 0;
    for (int i = 0; i < 100; ++i) acc = acc * 33 + rng.next_below(1 << 16);
    return acc;
  };
  const std::uint64_t base = 77;
  std::vector<std::uint64_t> forward, reversed(8);
  for (std::size_t i = 0; i < 8; ++i) {
    forward.push_back(point(exp::derive_seed(base, i)));
  }
  for (std::size_t i = 8; i-- > 0;) {
    reversed[i] = point(exp::derive_seed(base, i));
  }
  EXPECT_EQ(forward, reversed);

  // And the anti-pattern really is order-dependent (why ctx.seed exists):
  sim::Pcg32 shared_fwd(base), shared_rev(base);
  std::vector<std::uint64_t> f, r(2);
  f.push_back(shared_fwd.next_below(1 << 16));
  f.push_back(shared_fwd.next_below(1 << 16));
  r[1] = shared_rev.next_below(1 << 16);
  r[0] = shared_rev.next_below(1 << 16);
  EXPECT_NE(f, r);
}

}  // namespace
}  // namespace now
