// Tests for the cooperative-caching simulator (Table 3's machinery).
#include <gtest/gtest.h>

#include <vector>

#include "coopcache/coopcache.hpp"
#include "coopcache/lru.hpp"
#include "trace/fs_trace.hpp"

namespace now::coopcache {
namespace {

TEST(Lru, InsertTouchEvictOrder) {
  LruCache c(2);
  std::uint64_t victim = 0;
  EXPECT_FALSE(c.insert(1, &victim));
  EXPECT_FALSE(c.insert(2, &victim));
  EXPECT_TRUE(c.touch(1));       // 2 is now LRU
  EXPECT_TRUE(c.insert(3, &victim));
  EXPECT_EQ(victim, 2u);
  EXPECT_TRUE(c.contains(1));
  EXPECT_TRUE(c.contains(3));
  EXPECT_FALSE(c.contains(2));
}

TEST(Lru, TouchMissingReturnsFalse) {
  LruCache c(2);
  EXPECT_FALSE(c.touch(9));
}

TEST(Lru, EraseRemoves) {
  LruCache c(2);
  c.insert(1);
  EXPECT_TRUE(c.erase(1));
  EXPECT_FALSE(c.erase(1));
  EXPECT_EQ(c.size(), 0u);
}

TEST(Lru, ReinsertingPresentKeyTouches) {
  LruCache c(2);
  c.insert(1);
  c.insert(2);
  c.insert(1);  // refresh, no eviction
  std::uint64_t victim = 0;
  EXPECT_TRUE(c.insert(3, &victim));
  EXPECT_EQ(victim, 2u);
}

TEST(Lru, ZeroCapacityNeverStores) {
  LruCache c(0);
  c.insert(1);
  EXPECT_FALSE(c.contains(1));
}

CoopCacheConfig small_config(Policy p) {
  CoopCacheConfig cfg;
  cfg.clients = 3;
  cfg.client_cache_blocks = 4;
  cfg.server_cache_blocks = 8;
  cfg.policy = p;
  return cfg;
}

TEST(CoopCache, LocalHitAfterFirstRead) {
  CoopCacheSim sim(small_config(Policy::kClientServer));
  sim.access(0, 100, false);  // disk
  sim.access(0, 100, false);  // local
  EXPECT_EQ(sim.results().disk_reads, 1u);
  EXPECT_EQ(sim.results().local_hits, 1u);
}

TEST(CoopCache, ClientServerIgnoresPeers) {
  CoopCacheSim sim(small_config(Policy::kClientServer));
  sim.access(0, 100, false);     // disk; now cached at client 0 and server
  // Push block 100 out of the server cache with distinct other blocks.
  for (std::uint64_t b = 1; b <= 8; ++b) sim.access(1, 1000 + b, false);
  sim.access(2, 100, false);     // client 0 holds it, but no cooperation
  EXPECT_EQ(sim.results().remote_client_hits, 0u);
  EXPECT_EQ(sim.results().disk_reads, 9u + 1u);
}

TEST(CoopCache, GreedyForwardingUsesPeerMemory) {
  CoopCacheSim sim(small_config(Policy::kGreedyForwarding));
  sim.access(0, 100, false);  // disk
  for (std::uint64_t b = 1; b <= 8; ++b) sim.access(1, 1000 + b, false);
  sim.access(2, 100, false);  // forwarded from client 0's memory
  EXPECT_EQ(sim.results().remote_client_hits, 1u);
}

TEST(CoopCache, ServerCacheCatchesRepeatMisses) {
  CoopCacheSim sim(small_config(Policy::kClientServer));
  sim.access(0, 100, false);                       // disk, fills server
  for (std::uint64_t b = 1; b <= 4; ++b) sim.access(0, 200 + b, false);
  // Block 100 evicted from client 0's 4-block cache but still in server.
  sim.access(0, 100, false);
  EXPECT_EQ(sim.results().server_mem_hits, 1u);
  EXPECT_EQ(sim.results().disk_reads, 5u);
}

TEST(CoopCache, NChanceForwardsSinglets) {
  CoopCacheConfig cfg = small_config(Policy::kNChance);
  CoopCacheSim sim(cfg);
  sim.access(0, 100, false);
  // Evict block 100 from client 0 (the only copy -> singlet): it should
  // hop to a peer's cache rather than vanish.
  for (std::uint64_t b = 1; b <= 4; ++b) sim.access(0, 200 + b, false);
  EXPECT_GE(sim.holders(100), 1u);
}

TEST(CoopCache, NChanceRecirculationIsBounded) {
  CoopCacheConfig cfg = small_config(Policy::kNChance);
  cfg.nchance_limit = 1;
  CoopCacheSim sim(cfg);
  sim.access(0, 100, false);
  // Flood everyone with distinct blocks; block 100 can be forwarded at most
  // once, then must die.  Mostly checks this terminates and stays sane.
  for (std::uint32_t c = 0; c < cfg.clients; ++c) {
    for (std::uint64_t b = 0; b < 50; ++b) {
      sim.access(c, 10'000 + c * 100 + b, false);
    }
  }
  SUCCEED();
}

TEST(CoopCache, NChanceWithOneClientForwardsNothing) {
  CoopCacheConfig cfg = small_config(Policy::kNChance);
  cfg.clients = 1;
  CoopCacheSim sim(cfg);
  for (std::uint64_t b = 0; b < 50; ++b) sim.access(0, b, false);
  // Every eviction had nowhere to go.
  EXPECT_EQ(sim.results().singlet_forwards, 0u);
  EXPECT_TRUE(sim.directory_consistent());
  EXPECT_EQ(sim.holders(0), 0u);
}

TEST(CoopCache, WritesCountedSeparately) {
  CoopCacheSim sim(small_config(Policy::kClientServer));
  sim.access(0, 1, true);
  sim.access(0, 1, false);
  EXPECT_EQ(sim.results().writes, 1u);
  EXPECT_EQ(sim.results().reads, 1u);
  EXPECT_EQ(sim.results().local_hits, 1u);  // write installed it
}

TEST(CoopCache, ResponseTimeUsesCostModel) {
  CoopCacheResults r;
  r.reads = 100;
  r.local_hits = 78;
  r.server_mem_hits = 6;
  r.disk_reads = 16;
  CacheCosts costs;
  // 0.78*0.25 + 0.06*1.05 + 0.16*15.85 ms = 2.79 ms -- Table 3's 2.8 ms row.
  EXPECT_NEAR(r.mean_read_response_ms(costs), 2.79, 0.02);
}

// Replays the Table 3 workload (scaled in trace length for test speed)
// under one policy, with a 40 % warm-up prefix excluded from the stats.
CoopCacheResults run_table3_workload(Policy policy) {
  trace::FsWorkloadParams wp;
  wp.clients = 42;
  wp.accesses_per_client = 40'000;
  wp.shared_blocks = 12'288;
  wp.private_blocks = 4'096;
  wp.zipf_private = 1.10;
  wp.shared_fraction = 0.35;
  const auto accesses = trace::generate_fs_trace(wp);

  CoopCacheConfig cfg;           // Table 3: 16 MB clients, 128 MB server
  cfg.clients = wp.clients;
  cfg.client_cache_blocks = 2'048;
  cfg.server_cache_blocks = 16'384;
  cfg.policy = policy;

  CoopCacheSim sim(cfg);
  const std::size_t warm = accesses.size() * 2 / 5;
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    if (i == warm) sim.reset_stats();
    sim.access(accesses[i].client, accesses[i].block, accesses[i].is_write);
  }
  return sim.results();
}

// The headline property: on a shared workload, cooperation at least halves
// disk reads and substantially improves read response (Table 3's shape).
TEST(CoopCache, CooperationBeatsClientServerOnSharedWorkload) {
  const auto r_cs = run_table3_workload(Policy::kClientServer);
  const auto r_nc = run_table3_workload(Policy::kNChance);
  EXPECT_LT(r_nc.miss_rate(), r_cs.miss_rate() * 0.6);
  EXPECT_GT(r_nc.remote_client_hits, 0u);
  const CacheCosts costs;
  EXPECT_LT(r_nc.mean_read_response_ms(costs),
            r_cs.mean_read_response_ms(costs) / 1.3);
}

TEST(CoopCache, CentralCoordinationAlsoHelps) {
  const auto r_cs = run_table3_workload(Policy::kClientServer);
  const auto r_cc = run_table3_workload(Policy::kCentrallyCoordinated);
  EXPECT_LT(r_cc.miss_rate(), r_cs.miss_rate());
}

TEST(CoopCache, GreedyForwardingSitsBetweenBaselineAndNChance) {
  const auto r_cs = run_table3_workload(Policy::kClientServer);
  const auto r_gf = run_table3_workload(Policy::kGreedyForwarding);
  const auto r_nc = run_table3_workload(Policy::kNChance);
  EXPECT_LT(r_gf.miss_rate(), r_cs.miss_rate());
  EXPECT_LT(r_nc.miss_rate(), r_gf.miss_rate());
}

// Determinism: identical seeds give identical results.
TEST(CoopCache, DeterministicForSeed) {
  trace::FsWorkloadParams wp;
  wp.clients = 6;
  wp.accesses_per_client = 2'000;
  const auto accesses = trace::generate_fs_trace(wp);
  CoopCacheConfig cfg;
  cfg.clients = wp.clients;
  cfg.client_cache_blocks = 256;
  cfg.server_cache_blocks = 1'024;
  cfg.policy = Policy::kNChance;
  CoopCacheSim a(cfg), b(cfg);
  for (const auto& acc : accesses) {
    a.access(acc.client, acc.block, acc.is_write);
    b.access(acc.client, acc.block, acc.is_write);
  }
  EXPECT_EQ(a.results().disk_reads, b.results().disk_reads);
  EXPECT_EQ(a.results().remote_client_hits, b.results().remote_client_hits);
}

// A zero-block client cache caches and records nothing: its reads are
// never local or peer hits on its own account, and the directory stays
// empty.  Both ways to get one: a zero client_cache_blocks, and a centrally
// coordinated cache that hands all client memory to the global LRU.
TEST(CoopCache, ZeroCapacityClientsCacheNothing) {
  CoopCacheConfig nchance = small_config(Policy::kNChance);
  nchance.clients = 4;
  nchance.client_cache_blocks = 0;
  CoopCacheConfig coordinated = small_config(Policy::kCentrallyCoordinated);
  coordinated.clients = 4;
  coordinated.coordinated_fraction = 1.0;
  for (const CoopCacheConfig& cfg : {nchance, coordinated}) {
    SCOPED_TRACE(policy_name(cfg.policy));
    CoopCacheSim sim(cfg);
    // Each of 50 blocks is read four times, by two clients in turn.
    for (std::uint64_t i = 0; i < 200; ++i) {
      sim.access(static_cast<std::uint32_t>(i % 4), i % 50, false);
    }
    EXPECT_EQ(sim.results().reads, 200u);
    EXPECT_EQ(sim.results().local_hits, 0u);
    EXPECT_EQ(sim.results().remote_client_hits, 0u);
    EXPECT_EQ(sim.results().singlet_forwards, 0u);
    EXPECT_TRUE(sim.directory_consistent());
    for (std::uint64_t b = 0; b < 50; ++b) EXPECT_EQ(sim.holders(b), 0u);
  }
}

// A block's N-chance count survives a duplicate made by a write: the
// duplicate is evicted first and dropped quietly, and then the last copy,
// already forwarded once, dies at a limit of 1 instead of being forwarded
// again.  Two clients, so every forward goes to the other one; writes
// refresh a copy without resetting its count, as reads would.
TEST(CoopCache, RecirculationCountSurvivesAWrittenDuplicate) {
  CoopCacheConfig cfg = small_config(Policy::kNChance);
  cfg.clients = 2;
  cfg.client_cache_blocks = 2;
  cfg.nchance_limit = 1;
  CoopCacheSim sim(cfg);
  const std::uint64_t b = 100;
  sim.access(1, b, false);
  sim.access(1, 1, false);
  sim.access(1, 2, false);  // b, a singlet, is forwarded to client 0
  EXPECT_EQ(sim.results().singlet_forwards, 1u);
  EXPECT_EQ(sim.holders(b), 1u);
  sim.access(1, b, true);  // the duplicate; block 1 goes to client 0
  EXPECT_EQ(sim.results().singlet_forwards, 2u);
  EXPECT_EQ(sim.holders(b), 2u);
  sim.access(0, b, true);   // client 0: {b, 1}
  sim.access(1, 3, false);  // block 2 goes to client 0 and evicts block 1
  sim.access(0, b, true);   // client 0: {b, 2}
  sim.access(1, 4, false);  // client 1 evicts its duplicate of b
  EXPECT_EQ(sim.holders(b), 1u);
  EXPECT_EQ(sim.results().singlet_forwards, 3u);
  sim.access(0, 5, false);
  sim.access(0, 6, false);  // the last copy of b has used its chance
  EXPECT_EQ(sim.holders(b), 0u);
  EXPECT_EQ(sim.results().singlet_forwards, 3u);
  EXPECT_EQ(sim.results().local_hits, 0u);
  EXPECT_EQ(sim.results().remote_client_hits, 0u);
  EXPECT_TRUE(sim.directory_consistent());
}

// Every counter of every policy, flat and in racks, on two fixed-seed
// traces, pinned to the values the node-based containers produced (the
// 80-client rows to the values of the pooled holder lists).  A container
// or iteration-order change that moves any result fails here;
// DeterministicForSeed, which compares two runs of one build, cannot.  The
// 80-client trace has holders above id 63, so a holder set capped at 64
// clients fails it too.
TEST(CoopCache, GoldenResultsForSeed) {
  struct Golden {
    Policy policy;
    std::uint32_t rack_size;
    CoopCacheResults expect;  // reads, writes, local, peer, rack-local
                              // peer, server memory, disk, singlet forwards
  };
  struct Workload {
    std::uint32_t clients;
    std::uint64_t accesses_per_client;
    std::vector<Golden> golden;
  };
  const Workload workloads[] = {
      {12,
       4'000,
       {
           {Policy::kClientServer, 0, {16263, 2297, 6123, 0, 0, 750, 9390, 0}},
           {Policy::kGreedyForwarding, 0,
            {16263, 2297, 6126, 1276, 0, 297, 8564, 0}},
           {Policy::kCentrallyCoordinated, 0,
            {16263, 2297, 2344, 6995, 0, 149, 6775, 0}},
           {Policy::kNChance, 0, {16263, 2297, 5143, 4446, 0, 24, 6650, 17997}},
           {Policy::kClientServer, 4, {16263, 2297, 6123, 0, 0, 750, 9390, 0}},
           {Policy::kGreedyForwarding, 4,
            {16263, 2297, 6121, 1278, 450, 300, 8564, 0}},
           {Policy::kCentrallyCoordinated, 4,
            {16263, 2297, 2344, 6995, 0, 149, 6775, 0}},
           {Policy::kNChance, 4,
            {16263, 2297, 5169, 4422, 1298, 18, 6654, 17999}},
       }},
      {80,
       1'500,
       {
           {Policy::kClientServer, 0,
            {52150, 7130, 18912, 0, 0, 2103, 31135, 0}},
           {Policy::kGreedyForwarding, 0,
            {52150, 7130, 18814, 7794, 0, 0, 25542, 0}},
           {Policy::kCentrallyCoordinated, 0,
            {52150, 7130, 7570, 21513, 0, 1380, 21687, 0}},
           {Policy::kNChance, 0,
            {52150, 7130, 15902, 16067, 0, 0, 20181, 46220}},
           {Policy::kClientServer, 32,
            {52150, 7130, 18912, 0, 0, 2103, 31135, 0}},
           {Policy::kGreedyForwarding, 32,
            {52150, 7130, 18811, 7781, 5739, 0, 25558, 0}},
           {Policy::kCentrallyCoordinated, 32,
            {52150, 7130, 7570, 21513, 0, 1380, 21687, 0}},
           {Policy::kNChance, 32,
            {52150, 7130, 15932, 16056, 7978, 0, 20162, 46135}},
       }},
  };
  for (const Workload& w : workloads) {
    trace::FsWorkloadParams wp;
    wp.clients = w.clients;
    wp.accesses_per_client = w.accesses_per_client;
    wp.shared_blocks = 1'536;
    wp.private_blocks = 768;
    wp.seed = 11;
    const auto accesses = trace::generate_fs_trace(wp);
    for (const Golden& g : w.golden) {
      SCOPED_TRACE(std::to_string(w.clients) + " clients, " +
                   policy_name(g.policy) + ", rack_size " +
                   std::to_string(g.rack_size));
      CoopCacheConfig cfg;
      cfg.clients = wp.clients;
      cfg.client_cache_blocks = 128;
      cfg.server_cache_blocks = 512;
      cfg.policy = g.policy;
      cfg.rack_size = g.rack_size;
      CoopCacheSim sim(cfg);
      for (const auto& a : accesses) sim.access(a.client, a.block, a.is_write);
      const CoopCacheResults& r = sim.results();
      EXPECT_EQ(r.reads, g.expect.reads);
      EXPECT_EQ(r.writes, g.expect.writes);
      EXPECT_EQ(r.local_hits, g.expect.local_hits);
      EXPECT_EQ(r.remote_client_hits, g.expect.remote_client_hits);
      EXPECT_EQ(r.rack_local_peer_hits, g.expect.rack_local_peer_hits);
      EXPECT_EQ(r.server_mem_hits, g.expect.server_mem_hits);
      EXPECT_EQ(r.disk_reads, g.expect.disk_reads);
      EXPECT_EQ(r.singlet_forwards, g.expect.singlet_forwards);
      EXPECT_TRUE(sim.directory_consistent());
    }
  }
}

}  // namespace
}  // namespace now::coopcache
