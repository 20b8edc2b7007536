// Property-based tests: invariants checked across parameter sweeps
// (TEST_P / INSTANTIATE_TEST_SUITE_P) rather than single examples.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "coopcache/coopcache.hpp"
#include "coopcache/lru.hpp"
#include "core/cluster.hpp"
#include "glunix/overlay_sim.hpp"
#include "glunix/spmd.hpp"
#include "net/hierarchical.hpp"
#include "net/presets.hpp"
#include "proto/am.hpp"
#include "proto/nic_mux.hpp"
#include "proto/rpc.hpp"
#include "proto/tcp.hpp"
#include "raid/raid.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "trace/fs_trace.hpp"
#include "trace/parallel_trace.hpp"
#include "trace/usage_trace.hpp"
#include "xfs/log.hpp"
#include "xfs/xfs.hpp"

namespace now {
namespace {

// ---------------------------------------------------------------------
// Engine determinism: an arbitrary self-scheduling workload dispatches the
// identical event sequence on every run with the same seed.
class EngineDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

std::vector<sim::SimTime> run_chaotic_workload(std::uint64_t seed) {
  sim::Engine eng;
  sim::Pcg32 rng(seed);
  std::vector<sim::SimTime> dispatch_times;
  std::function<void(int)> spawn = [&](int depth) {
    dispatch_times.push_back(eng.now());
    if (depth == 0) return;
    const int children = 1 + static_cast<int>(rng.next_below(3));
    for (int i = 0; i < children; ++i) {
      const auto delay = static_cast<sim::Duration>(rng.next_below(1000));
      eng.schedule_in(delay, [&spawn, depth] { spawn(depth - 1); });
    }
    // Sometimes schedule-and-cancel, exercising tombstones.
    if (rng.bernoulli(0.3)) {
      const auto id = eng.schedule_in(10, [] { FAIL(); });
      eng.cancel(id);
    }
  };
  eng.schedule_at(0, [&spawn] { spawn(6); });
  eng.run();
  return dispatch_times;
}

TEST_P(EngineDeterminism, IdenticalDispatchSequence) {
  const auto a = run_chaotic_workload(GetParam());
  const auto b = run_chaotic_workload(GetParam());
  EXPECT_EQ(a, b);
  EXPECT_GT(a.size(), 10u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDeterminism,
                         ::testing::Values(1, 7, 42, 1234, 99999));

// ---------------------------------------------------------------------
// LRU vs a naive reference model under random operation streams over keys
// [0, key_space).
void check_lru_against_model(std::size_t capacity, std::uint32_t key_space,
                             int seed, int ops) {
  coopcache::LruCache cache(capacity);
  std::vector<std::uint64_t> model;  // front = MRU
  sim::Pcg32 rng(static_cast<std::uint64_t>(seed));

  for (int op = 0; op < ops; ++op) {
    const std::uint64_t key = rng.next_below(key_space);
    const auto mit = std::find(model.begin(), model.end(), key);
    switch (rng.next_below(3)) {
      case 0: {  // insert
        std::uint64_t victim = 0;
        const bool evicted = cache.insert(key, &victim);
        if (mit != model.end()) {
          model.erase(mit);
          model.insert(model.begin(), key);
          EXPECT_FALSE(evicted);
        } else {
          if (model.size() >= capacity && capacity > 0) {
            EXPECT_TRUE(evicted);
            EXPECT_EQ(victim, model.back());
            model.pop_back();
          } else {
            EXPECT_FALSE(evicted);
          }
          if (capacity > 0) model.insert(model.begin(), key);
        }
        break;
      }
      case 1: {  // touch
        const bool hit = cache.touch(key);
        EXPECT_EQ(hit, mit != model.end());
        if (mit != model.end()) {
          model.erase(mit);
          model.insert(model.begin(), key);
        }
        break;
      }
      case 2: {  // erase
        const bool had = cache.erase(key);
        EXPECT_EQ(had, mit != model.end());
        if (mit != model.end()) model.erase(mit);
        break;
      }
    }
    ASSERT_EQ(cache.size(), model.size());
    for (const std::uint64_t k : model) {
      ASSERT_TRUE(cache.contains(k)) << k;
    }
  }
}

class LruModelCheck
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(LruModelCheck, MatchesReferenceModel) {
  const auto [capacity, seed] = GetParam();
  check_lru_against_model(capacity, 24, seed, 4000);
}

INSTANTIATE_TEST_SUITE_P(
    CapacityAndSeed, LruModelCheck,
    ::testing::Combine(::testing::Values<std::size_t>(1, 3, 8, 16),
                       ::testing::Values(1, 2, 3)));

// Large enough that the key index grows several times and erased and
// evicted nodes are reused.
TEST(LruModelCheckLarge, MatchesReferenceModel) {
  for (const int seed : {1, 2}) {
    SCOPED_TRACE(seed);
    check_lru_against_model(1000, 4096, seed, 12'000);
  }
}

// ---------------------------------------------------------------------
// Active Messages: exactly-once, in-order handling per pair, across loss
// rates — the go-back-N + epoch machinery's core contract.
class AmLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(AmLossSweep, ExactlyOnceAndInOrder) {
  const double loss = GetParam();
  sim::Engine eng;
  net::HierarchicalNetwork fabric(eng, net::fddi_medusa());
  proto::NicMux mux(fabric);
  proto::AmParams ap;
  ap.loss_probability = loss;
  ap.retry_timeout = 2 * sim::kMillisecond;
  ap.window = 8;
  proto::AmLayer am(mux, ap, /*seed=*/17);
  os::Node n0(eng, 0, os::NodeParams{});
  os::Node n1(eng, 1, os::NodeParams{});
  mux.attach_node(n0);
  mux.attach_node(n1);
  const auto e0 = am.create_endpoint(n0, proto::AmLayer::Mode::kInterrupt);
  const auto e1 = am.create_endpoint(n1, proto::AmLayer::Mode::kInterrupt);
  std::vector<int> received;
  am.register_handler(e1, 1, [&](const proto::AmMessage& m) {
    received.push_back(std::any_cast<int>(std::get<std::any>(m.payload)));
  });
  const int kMessages = 120;
  for (int i = 0; i < kMessages; ++i) am.send(e0, e1, 1, 64, i);
  eng.run();
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
  }
  if (loss > 0) {
    EXPECT_GT(am.stats().retransmits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, AmLossSweep,
                         ::testing::Values(0.0, 0.02, 0.1, 0.3));

// ---------------------------------------------------------------------
// Software RAID: arbitrary (offset, size) extents complete, on both
// levels, healthy and degraded.
//
// gtest names each case by the raw bytes of its RaidCase. `pad` fills the
// bytes after `degraded` with zeros; left as compiler padding they held
// stack garbage, and the test names changed from one run to the next.
struct RaidCase {
  int members;
  raid::Level level;
  bool degraded;
  std::uint8_t pad[3] = {};
};
static_assert(sizeof(RaidCase) == 12, "RaidCase must have no padding");

class RaidExtents : public ::testing::TestWithParam<RaidCase> {};

TEST_P(RaidExtents, RandomExtentsAlwaysComplete) {
  const RaidCase tc = GetParam();
  sim::Engine eng;
  net::HierarchicalNetwork fabric(eng, net::myrinet());
  proto::NicMux mux(fabric);
  proto::AmLayer am(mux, proto::AmParams{});
  proto::RpcLayer rpc(am);
  std::vector<std::unique_ptr<os::Node>> nodes;
  std::vector<os::Node*> members;
  for (int i = 0; i <= tc.members; ++i) {
    nodes.push_back(std::make_unique<os::Node>(
        eng, static_cast<net::NodeId>(i), os::NodeParams{}));
    mux.attach_node(*nodes.back());
    rpc.bind(*nodes.back());
    raid::install_storage_service(rpc, *nodes.back());
    if (i > 0) members.push_back(nodes.back().get());
  }
  raid::RaidParams rp;
  rp.level = tc.level;
  raid::SoftwareRaid raid(rpc, members, rp);
  if (tc.degraded) {
    nodes[2]->crash();
    raid.member_failed(2);
  }
  sim::Pcg32 rng(tc.members * 100 + (tc.degraded ? 1 : 0));
  int completions = 0;
  const int kOps = 40;
  for (int i = 0; i < kOps; ++i) {
    const std::uint64_t offset = rng.next_below(1 << 20);
    const std::uint32_t bytes = 1 + rng.next_below(256 * 1024);
    if (!tc.degraded && rng.bernoulli(0.5)) {
      raid.write(0, offset, bytes, [&] { ++completions; });
    } else {
      raid.read(0, offset, bytes, [&] { ++completions; });
    }
  }
  eng.run();
  EXPECT_EQ(completions, kOps);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, RaidExtents,
    ::testing::Values(RaidCase{3, raid::Level::kRaid0, false},
                      RaidCase{8, raid::Level::kRaid0, false},
                      RaidCase{3, raid::Level::kRaid5, false},
                      RaidCase{8, raid::Level::kRaid5, false},
                      RaidCase{4, raid::Level::kRaid5, true},
                      RaidCase{8, raid::Level::kRaid5, true}));

// ---------------------------------------------------------------------
// xFS coherence: after an arbitrary interleaving of reads/writes/syncs,
// at most one dirty holder exists per block and the directory matches.
class XfsCoherence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XfsCoherence, SingleWriterInvariantSurvivesChaos) {
  sim::Engine eng;
  net::HierarchicalNetwork fabric(eng, net::atm_155mbps());
  proto::NicMux mux(fabric);
  proto::AmLayer am(mux, proto::AmParams{});
  proto::RpcLayer rpc(am);
  std::vector<std::unique_ptr<os::Node>> nodes;
  std::vector<os::Node*> members;
  for (int i = 0; i < 6; ++i) {
    nodes.push_back(std::make_unique<os::Node>(
        eng, static_cast<net::NodeId>(i), os::NodeParams{}));
    mux.attach_node(*nodes.back());
    rpc.bind(*nodes.back());
    raid::install_storage_service(rpc, *nodes.back());
    members.push_back(nodes.back().get());
  }
  xfs::XfsParams xp;
  xp.client_cache_blocks = 16;
  xp.segment_blocks = 5;
  raid::RaidParams rp;
  rp.level = raid::Level::kRaid5;
  rp.stripe_unit = xfs::kBlockBytes;
  raid::SoftwareRaid storage(rpc, members, rp);
  xfs::LogStore log(storage, xp.segment_blocks);
  xfs::Xfs fs(rpc, log, members, xp);
  fs.start();

  sim::Pcg32 rng(GetParam());
  int done = 0;
  for (int op = 0; op < 400; ++op) {
    const auto c = rng.next_below(6);
    const xfs::BlockId b = rng.next_below(60);
    switch (rng.next_below(4)) {
      case 0:
      case 1:
        fs.read(c, b, [&](bool) { ++done; });
        break;
      case 2:
        fs.write(c, b, [&](bool) { ++done; });
        break;
      case 3:
        fs.sync(c, [&] { ++done; });
        break;
    }
    // Quiesce between bursts occasionally so invariants are checkable at
    // stable points (mid-flight transfers legitimately overlap).
    if (op % 40 == 39) {
      eng.run();
      EXPECT_TRUE(fs.coherence_invariant_holds()) << "after op " << op;
    }
  }
  eng.run();
  EXPECT_EQ(done, 400);
  EXPECT_TRUE(fs.coherence_invariant_holds());
}

INSTANTIATE_TEST_SUITE_P(Seeds, XfsCoherence,
                         ::testing::Values(3, 11, 29, 63));

// ---------------------------------------------------------------------
// Cooperative caching: the directory mirrors the caches exactly, for every
// policy, flat and in racks, throughout a trace replay.
class CoopDirectory
    : public ::testing::TestWithParam<coopcache::Policy> {};

TEST_P(CoopDirectory, StaysConsistentThroughReplay) {
  trace::FsWorkloadParams wp;
  wp.clients = 8;
  wp.accesses_per_client = 4'000;
  wp.shared_blocks = 1'024;
  wp.private_blocks = 512;
  const auto accesses = trace::generate_fs_trace(wp);
  for (const std::uint32_t rack_size : {0u, 3u}) {
    SCOPED_TRACE("rack_size " + std::to_string(rack_size));
    coopcache::CoopCacheConfig cfg;
    cfg.clients = wp.clients;
    cfg.client_cache_blocks = 64;
    cfg.server_cache_blocks = 256;
    cfg.policy = GetParam();
    cfg.rack_size = rack_size;
    coopcache::CoopCacheSim sim(cfg);
    std::size_t i = 0;
    for (const auto& a : accesses) {
      sim.access(a.client, a.block, a.is_write);
      if (++i % 500 == 0) {
        ASSERT_TRUE(sim.directory_consistent()) << "at access " << i;
      }
    }
    EXPECT_TRUE(sim.directory_consistent());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CoopDirectory,
    ::testing::Values(coopcache::Policy::kClientServer,
                      coopcache::Policy::kGreedyForwarding,
                      coopcache::Policy::kCentrallyCoordinated,
                      coopcache::Policy::kNChance));

// ---------------------------------------------------------------------
// Overlay study: the execution-dilation slowdown can never meaningfully
// drop below 1 (the NOW cannot beat dedicated execution of the same jobs),
// for any seed and cluster size.  `pad` zeroes the tail bytes gtest prints
// into the test name, as in RaidCase.
struct OverlayCase {
  std::uint64_t seed;
  std::uint32_t workstations;
  std::uint8_t pad[4] = {};
};
static_assert(sizeof(OverlayCase) == 16, "OverlayCase must have no padding");

class OverlayBounds : public ::testing::TestWithParam<OverlayCase> {};

TEST_P(OverlayBounds, SlowdownIsAtLeastOne) {
  const OverlayCase tc = GetParam();
  trace::UsageParams up;
  up.workstations = tc.workstations;
  up.duration = 6 * sim::kHour;
  up.seed = tc.seed;
  const trace::UsageTrace usage(up);
  trace::ParallelJobParams jp;
  jp.duration = 6 * sim::kHour;
  jp.seed = tc.seed + 1;
  const auto jobs = trace::generate_parallel_jobs(jp);
  glunix::OverlayParams op;
  op.workstations = tc.workstations;
  const auto r = glunix::simulate_overlay(usage, jobs, op);
  if (r.jobs_completed == jobs.size()) {
    EXPECT_GE(r.workload_slowdown, 0.999);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSizes, OverlayBounds,
    ::testing::Values(OverlayCase{1, 48}, OverlayCase{2, 64},
                      OverlayCase{3, 64}, OverlayCase{4, 96},
                      OverlayCase{5, 128}));

// ---------------------------------------------------------------------
// TCP model: random message sizes arrive exactly once, in order, per
// connection, across MTUs and window sizes.
struct TcpCase {
  std::uint32_t mtu;
  std::uint32_t window;
};

class TcpDelivery : public ::testing::TestWithParam<TcpCase> {};

TEST_P(TcpDelivery, ExactlyOnceInOrderAnySizes) {
  const TcpCase tc = GetParam();
  sim::Engine eng;
  net::HierarchicalNetwork fabric(eng, net::atm_155mbps());
  proto::NicMux mux(fabric);
  os::Node n0(eng, 0, os::NodeParams{});
  os::Node n1(eng, 1, os::NodeParams{});
  mux.attach_node(n0);
  mux.attach_node(n1);
  proto::TcpParams tp;
  tp.mtu_bytes = tc.mtu;
  tp.window_bytes = tc.window;
  proto::TcpLayer tcp(mux, tp);

  std::vector<int> received;
  tcp.listen(1, 80, [&](proto::TcpMessage&& m) {
    received.push_back(std::any_cast<int>(m.payload));
  });
  sim::Pcg32 rng(5);
  const int kMessages = 60;
  for (int i = 0; i < kMessages; ++i) {
    const std::uint32_t bytes = 1 + rng.next_below(40'000);
    tcp.send(0, 9, 1, 80, bytes, i);
  }
  eng.run();
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MtuAndWindow, TcpDelivery,
    ::testing::Values(TcpCase{1500, 64 * 1024}, TcpCase{1500, 4 * 1024},
                      TcpCase{9180, 64 * 1024}, TcpCase{9180, 16 * 1024},
                      TcpCase{512, 2 * 1024}));

// ---------------------------------------------------------------------
// Failure isolation: "If a workstation fails in our model, it only
// affects the programs using that CPU; ... programs running on other CPUs
// continue unaffected."  Two gangs on disjoint nodes; kill one gang's
// node; the other finishes normally.
class FailureIsolation : public ::testing::TestWithParam<int> {};

TEST_P(FailureIsolation, CrashOnlyKillsItsOwnPrograms) {
  sim::Engine eng;
  net::HierarchicalNetwork fabric(eng, net::cm5_fabric());
  proto::NicMux mux(fabric);
  proto::AmParams ap;
  ap.costs = proto::am_cm5();
  proto::AmLayer am(mux, ap);
  std::vector<std::unique_ptr<os::Node>> nodes;
  for (int i = 0; i < 8; ++i) {
    nodes.push_back(std::make_unique<os::Node>(
        eng, static_cast<net::NodeId>(i), os::NodeParams{}));
    mux.attach_node(*nodes.back());
  }
  std::vector<os::Node*> half_a{nodes[0].get(), nodes[1].get(),
                                nodes[2].get(), nodes[3].get()};
  std::vector<os::Node*> half_b{nodes[4].get(), nodes[5].get(),
                                nodes[6].get(), nodes[7].get()};
  glunix::SpmdParams sp;
  sp.pattern = glunix::CommPattern::kEm3d;
  sp.iterations = 25;
  sp.compute_per_iteration = 10 * sim::kMillisecond;
  glunix::SpmdApp doomed(am, half_a, sp, nullptr);
  sim::Duration b_elapsed = 0;
  glunix::SpmdApp survivor(am, half_b, sp,
                           [&](sim::Duration d) { b_elapsed = d; });
  doomed.start();
  survivor.start();
  const int victim = GetParam();
  eng.schedule_at(50 * sim::kMillisecond,
                  [&nodes, victim] { nodes[victim]->crash(); });
  eng.run_until(10 * 60 * sim::kSecond);
  EXPECT_FALSE(doomed.finished());   // lost a rank, cannot complete
  EXPECT_TRUE(survivor.finished());  // never noticed
  EXPECT_GT(b_elapsed, 25 * 10 * sim::kMillisecond);
}

INSTANTIATE_TEST_SUITE_P(Victims, FailureIsolation,
                         ::testing::Values(0, 2, 3));

// ---------------------------------------------------------------------
// Whole-cluster determinism: identical seeds produce bit-identical
// behaviour through every layer at once.
class ClusterDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

struct ClusterFingerprint {
  std::uint64_t fs_peer_fetches = 0;
  std::uint64_t fs_segments = 0;
  std::uint64_t glunix_migrations = 0;
  std::uint64_t glunix_completed = 0;
  std::uint64_t events = 0;
  sim::SimTime final_time = 0;
  bool operator==(const ClusterFingerprint&) const = default;
};

ClusterFingerprint run_cluster_workload(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.workstations = 8;
  cfg.with_xfs = true;
  cfg.xfs.client_cache_blocks = 32;
  cfg.seed = seed;
  Cluster c(cfg);
  sim::Pcg32 rng(seed);

  for (int j = 0; j < 3; ++j) {
    c.glunix().run_remote(sim::from_sec(rng.uniform(10, 60)), 8ull << 20,
                          [](net::NodeId) {});
  }
  for (int op = 0; op < 300; ++op) {
    const auto node = rng.next_below(8);
    const xfs::BlockId b = rng.next_below(100);
    if (rng.bernoulli(0.3)) {
      c.fs().write(node, b, [](bool) {});
    } else {
      c.fs().read(node, b, [](bool) {});
    }
  }
  // Some console noise.
  for (sim::SimTime t = 0; t < 60 * sim::kSecond; t += 7 * sim::kSecond) {
    const auto n = rng.next_below(8);
    c.engine().schedule_at(t, [&c, n] { c.node(n).user_activity(); });
  }
  c.run_until(5 * sim::kMinute);

  ClusterFingerprint fp;
  fp.fs_peer_fetches = c.fs().stats().peer_fetches;
  fp.fs_segments = c.fs().stats().segments_flushed;
  fp.glunix_migrations = c.glunix().stats().migrations;
  fp.glunix_completed = c.glunix().stats().completed;
  fp.events = c.engine().dispatched();
  fp.final_time = c.engine().now();
  return fp;
}

TEST_P(ClusterDeterminism, IdenticalRunsProduceIdenticalFingerprints) {
  const auto a = run_cluster_workload(GetParam());
  const auto b = run_cluster_workload(GetParam());
  EXPECT_EQ(a, b);
  EXPECT_GT(a.events, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterDeterminism,
                         ::testing::Values(1, 2, 99));

TEST(ClusterSeeds, DifferentSeedsProduceDifferentBehaviour) {
  const auto a = run_cluster_workload(5);
  const auto b = run_cluster_workload(6);
  EXPECT_FALSE(a == b);  // the seed genuinely steers the run
}

// ---------------------------------------------------------------------
// Cross-module validation: xFS's cooperative caching should show the same
// qualitative hierarchy as the dedicated coopcache simulator on the same
// trace — local hits first, then peer memory, with disk a distant third.
TEST(CrossValidation, XfsActsAsACooperativeCache) {
  trace::FsWorkloadParams wp;
  wp.clients = 8;
  wp.accesses_per_client = 1'500;
  wp.shared_blocks = 512;
  wp.private_blocks = 128;
  wp.zipf_shared = 1.1;
  const auto accesses = trace::generate_fs_trace(wp);

  ClusterConfig cfg;
  cfg.workstations = 8;
  cfg.with_glunix = false;
  cfg.with_xfs = true;
  cfg.xfs.client_cache_blocks = 96;
  Cluster c(cfg);
  for (const auto& a : accesses) {
    if (a.is_write) {
      c.fs().write(a.client, a.block, [](bool) {});
    } else {
      c.fs().read(a.client, a.block, [](bool) {});
    }
    c.run();
  }
  const auto& s = c.fs().stats();
  // Hierarchy: peers served many misses, the log far fewer — the
  // cooperative-cache shape Table 3 quantifies.
  EXPECT_GT(s.local_hits, s.peer_fetches);
  EXPECT_GT(s.peer_fetches, s.log_reads);
  EXPECT_TRUE(c.fs().coherence_invariant_holds());
}

// ---------------------------------------------------------------------
// Statistics: Summary::merge is order-insensitive and matches pooling.
class SummaryMerge : public ::testing::TestWithParam<int> {};

TEST_P(SummaryMerge, MergeEqualsPooled) {
  sim::Pcg32 rng(static_cast<std::uint64_t>(GetParam()));
  sim::Summary pooled;
  std::vector<sim::Summary> parts(4);
  for (int i = 0; i < 2'000; ++i) {
    const double x = rng.normal(3.0, 7.0);
    pooled.add(x);
    parts[rng.next_below(4)].add(x);
  }
  sim::Summary merged;
  for (const auto& p : parts) merged.merge(p);
  EXPECT_EQ(merged.count(), pooled.count());
  EXPECT_NEAR(merged.mean(), pooled.mean(), 1e-9);
  EXPECT_NEAR(merged.variance(), pooled.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(merged.min(), pooled.min());
  EXPECT_DOUBLE_EQ(merged.max(), pooled.max());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SummaryMerge, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace now
