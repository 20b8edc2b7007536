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
  /// caches.  Every holder link names a node that holds its block and sits
  /// on its client's list, no list exceeds its capacity, and no recirculation
  /// count exceeds the N-chance limit.  O(directory size + cached blocks).
  bool directory_consistent() const;

 private:
  /// A block's directory entry, the only index of its cached copies: the
  /// first holder inline (its client and that client's LRU node), further
  /// holders linked through the pool, and the N-chance recirculation count.
  /// Most blocks have one holder, so most reads touch only the table slot.
  ///
  /// The count is the number of times the block has been forwarded as a
  /// singlet since a client last read it.  A forward carries it to the
  /// peer, a local or peer hit sets it to 0, and adding or dropping a
  /// duplicate leaves it alone.
  struct Entry {
    std::uint32_t client;
    std::uint32_t node;
    std::uint32_t rest;  // pool index of the second holder, or kNoHolder
    std::uint32_t recirculations;
  };
  /// One more client holding a block: a link in that block's holder list.
  struct Holder {
    std::uint32_t client;
    std::uint32_t node;
    std::uint32_t next;  // kNoHolder ends the list
  };
  static constexpr std::uint32_t kNoHolder = ~std::uint32_t{0};

  void read(std::uint32_t client, std::uint64_t block);
  void write(std::uint32_t client, std::uint64_t block);
  /// Caches `block`, which `client` does not hold, at the front of the
  /// client's list and records the copy in `e`, the block's entry (nullptr
  /// if it has none yet).  A zero-capacity client caches and records
  /// nothing.
  void cache_new(std::uint32_t client, std::uint64_t block, Entry* e);
  /// Where place() put a block: its node, and the key it evicted if any.
  struct Placed {
    std::uint32_t node;
    bool evicted;
    std::uint64_t victim;
  };
  /// Puts `block` at the front of `client`'s list, evicting the LRU block
  /// if the list is full.  Touches only the list, not the directory.
  Placed place(std::uint32_t client, std::uint64_t block);
  /// `client` has evicted `victim`: update its entry, then demote, forward
  /// or drop the block as the policy says.
  void handle_eviction(std::uint32_t client, std::uint64_t victim);
  /// Adds a holder link to `e`.
  void add_holder(Entry& e, std::uint32_t client, std::uint32_t node);
  /// Drops `client`'s link from `e`, which has another holder.
  void drop_holder(Entry& e, std::uint32_t client);
  /// `client`'s node for the block of `e`, or LruLists::kNil.
  std::uint32_t node_of(const Entry& e, std::uint32_t client) const;

  /// Calls `f(client, node)` for each of a block's holders.  Holder order is
  /// arbitrary; nothing may depend on it.
  template <typename F>
  void for_each_holder(const Entry& e, F&& f) const {
    f(e.client, e.node);
    for (std::uint32_t h = e.rest; h != kNoHolder; h = holder_pool_[h].next) {
      f(holder_pool_[h].client, holder_pool_[h].node);
    }
  }

  CoopCacheConfig config_;
  sim::Pcg32 rng_;
  /// Blocks per client cache.
  std::uint32_t client_capacity_;
  /// Every client's cache: one LRU list per client over one node pool.
  LruLists nodes_;
  std::vector<LruLists::List> lists_;
  LruCache server_cache_;
  /// Centrally coordinated global cache: one LRU over most of the
  /// aggregate client memory (kCentrallyCoordinated only).
  LruCache coordinated_;
  /// Directory: block -> the clients caching it and their nodes.
  sim::FlatMap<Entry> directory_;
  /// Every block's second and later holders, linked through one pool.
  /// Freed links are reused through free_holder_, so a block costs no
  /// allocation.
  std::vector<Holder> holder_pool_;
  std::uint32_t free_holder_ = kNoHolder;
  CoopCacheResults results_;
  obs::Collector stats_obs_;
};

}  // namespace now::coopcache
