// Cooperative file caching (Dahlin et al., OSDI '94) — the study behind
// Table 3.
//
// A building's client workstations manage their file caches as one large
// cooperative cache: on a local miss, a block found in *another client's*
// memory is fetched from there (fast) instead of from the server's disk
// (slow).  This module is a trace-driven simulator, mirroring the paper's
// methodology (they replayed a two-day Berkeley trace), with the algorithm
// variants of the original study available for ablation:
//
//   kClientServer        — no cooperation: local cache, server cache, disk.
//   kGreedyForwarding    — misses may be served from any client caching the
//                          block (located via a manager directory).
//   kCentrallyCoordinated— most of each client's cache is managed as one
//                          global LRU coordinated by the server.
//   kNChance             — greedy forwarding + singlets (last cached copy)
//                          are forwarded to a random peer instead of being
//                          dropped, recirculating up to N times.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/flat_map.hpp"
#include "coopcache/lru.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace now::coopcache {

enum class Policy {
  kClientServer,
  kGreedyForwarding,
  kCentrallyCoordinated,
  kNChance,
};

const char* policy_name(Policy p);

/// Per-level access costs.  Defaults reproduce the study's ATM-era numbers
/// (consistent with Table 2): local memory 250 us, another client's memory
/// 1,250 us, server memory 1,050 us, server disk 15,850 us.
struct CacheCosts {
  sim::Duration local_hit = sim::from_us(250);
  sim::Duration remote_client = sim::from_us(1'250);
  /// A peer in *another rack* of a hierarchical building (two extra switch
  /// crossings plus spine queueing).  Defaults to remote_client, so flat
  /// (rack-less) configurations and every pre-building result are
  /// unchanged; building-scale benches raise it.
  sim::Duration remote_client_cross_rack = sim::from_us(1'250);
  sim::Duration server_mem = sim::from_us(1'050);
  sim::Duration server_disk = sim::from_us(15'850);
};

struct CoopCacheConfig {
  std::uint32_t clients = 42;
  /// 16 MB per client at 8 KB blocks.
  std::uint32_t client_cache_blocks = 2048;
  /// 128 MB server cache.
  std::uint32_t server_cache_blocks = 16384;
  Policy policy = Policy::kNChance;
  /// N-chance recirculation count.
  std::uint32_t nchance_limit = 2;
  /// Centrally coordinated: fraction of each client cache under global
  /// management.
  double coordinated_fraction = 0.8;
  /// Clients per rack of the building's fabric (ids map in blocks, like
  /// net::FatTreeTopology).  When > 0, forwarding prefers a same-rack
  /// holder and results split peer hits by locality.  0 = flat building,
  /// the original study's shape.
  std::uint32_t rack_size = 0;
  CacheCosts costs;
  std::uint64_t seed = 1;
};

struct CoopCacheResults {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t local_hits = 0;
  std::uint64_t remote_client_hits = 0;
  /// Of remote_client_hits, how many were served from the requester's own
  /// rack (only ever non-zero with rack_size > 0).
  std::uint64_t rack_local_peer_hits = 0;
  std::uint64_t server_mem_hits = 0;
  std::uint64_t disk_reads = 0;
  /// N-chance: evicted singlets handed to a random peer instead of dropped.
  std::uint64_t singlet_forwards = 0;

  double miss_rate() const {  // fraction of reads served from disk
    return reads ? static_cast<double>(disk_reads) /
                       static_cast<double>(reads)
                 : 0.0;
  }
  double local_hit_rate() const {
    return reads ? static_cast<double>(local_hits) /
                       static_cast<double>(reads)
                 : 0.0;
  }
  /// Mean read response time in milliseconds (Table 3's second column).
  double mean_read_response_ms(const CacheCosts& c) const;
};

class CoopCacheSim {
 public:
  explicit CoopCacheSim(CoopCacheConfig config);

  /// Replays one access.  Blocks are global identifiers.
  void access(std::uint32_t client, std::uint64_t block, bool is_write);

  const CoopCacheResults& results() const { return results_; }
  const CoopCacheConfig& config() const { return config_; }

  /// Clears counters but keeps cache contents — call after replaying a
  /// warm-up prefix so results reflect steady state, as the original study
  /// measured.
  void reset_stats() { results_ = CoopCacheResults{}; }

  /// How many clients currently cache `block` (directory fan-out).
  std::size_t holders(std::uint64_t block) const;

  /// Invariant check: the manager directory exactly mirrors the client
  /// caches.  O(directory size).
  bool directory_consistent() const;

 private:
  void read(std::uint32_t client, std::uint64_t block);
  void write(std::uint32_t client, std::uint64_t block);
  void insert_local(std::uint32_t client, std::uint64_t block);
  void handle_eviction(std::uint32_t client, std::uint64_t victim);
  void directory_add(std::uint64_t block, std::uint32_t client);
  void directory_remove(std::uint64_t block, std::uint32_t client);
  /// A client (other than `except`) caching `block`, or -1.
  std::int64_t find_holder(std::uint64_t block, std::uint32_t except) const;

  CoopCacheConfig config_;
  sim::Pcg32 rng_;
  std::vector<LruCache> client_caches_;
  LruCache server_cache_;
  /// Centrally coordinated global cache: one LRU over most of the
  /// aggregate client memory (kCentrallyCoordinated only).
  LruCache coordinated_;
  /// One client holding a block: a link in that block's holder list.
  struct Holder {
    std::uint32_t client;
    std::uint32_t next;  // kNoHolder ends the list
  };
  static constexpr std::uint32_t kNoHolder = ~std::uint32_t{0};

  /// Directory: block -> first of the clients holding it in their local
  /// caches.  Holder order is arbitrary; nothing may depend on it.
  sim::FlatMap<std::uint32_t> directory_;
  /// Every block's holder list, linked through one pool.  Freed links are
  /// reused through free_holder_, so a block costs no allocation.
  std::vector<Holder> holder_pool_;
  std::uint32_t free_holder_ = kNoHolder;
  /// N-chance: times each at-large singlet has been forwarded.
  sim::FlatMap<std::uint32_t> recirculations_;
  CoopCacheResults results_;
  obs::Collector stats_obs_;
};

}  // namespace now::coopcache
