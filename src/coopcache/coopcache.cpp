#include "coopcache/coopcache.hpp"

#include <algorithm>
#include <cassert>

namespace now::coopcache {

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kClientServer: return "client-server";
    case Policy::kGreedyForwarding: return "greedy-forwarding";
    case Policy::kCentrallyCoordinated: return "centrally-coordinated";
    case Policy::kNChance: return "n-chance";
  }
  return "?";
}

double CoopCacheResults::mean_read_response_ms(const CacheCosts& c) const {
  if (reads == 0) return 0.0;
  // Peer hits split by locality; with the default costs (cross-rack ==
  // in-rack) the split collapses to the original flat-building formula.
  const std::uint64_t cross = remote_client_hits - rack_local_peer_hits;
  const double total_us =
      sim::to_us(c.local_hit) * static_cast<double>(local_hits) +
      sim::to_us(c.remote_client) *
          static_cast<double>(rack_local_peer_hits) +
      sim::to_us(c.remote_client_cross_rack) * static_cast<double>(cross) +
      sim::to_us(c.server_mem) * static_cast<double>(server_mem_hits) +
      sim::to_us(c.server_disk) * static_cast<double>(disk_reads);
  return total_us / static_cast<double>(reads) / 1000.0;
}

namespace {
std::size_t local_capacity(const CoopCacheConfig& cfg) {
  if (cfg.policy == Policy::kCentrallyCoordinated) {
    return static_cast<std::size_t>(
        static_cast<double>(cfg.client_cache_blocks) *
        (1.0 - cfg.coordinated_fraction));
  }
  return cfg.client_cache_blocks;
}

std::size_t coordinated_capacity(const CoopCacheConfig& cfg) {
  if (cfg.policy != Policy::kCentrallyCoordinated) return 0;
  return static_cast<std::size_t>(
      static_cast<double>(cfg.client_cache_blocks) * cfg.clients *
      cfg.coordinated_fraction);
}
}  // namespace

CoopCacheSim::CoopCacheSim(CoopCacheConfig config)
    : config_(config), rng_(config.seed, /*stream=*/0x636f6f70),
      client_capacity_(static_cast<std::uint32_t>(local_capacity(config))),
      lists_(config.clients),
      server_cache_(config.server_cache_blocks),
      coordinated_(coordinated_capacity(config)),
      stats_obs_("coopcache", [this](obs::Sink& s) {
        s.counter("reads", results_.reads);
        s.counter("writes", results_.writes);
        s.counter("local_hits", results_.local_hits);
        s.counter("remote_client_hits", results_.remote_client_hits);
        s.counter("rack_local_peer_hits", results_.rack_local_peer_hits);
        s.counter("server_mem_hits", results_.server_mem_hits);
        s.counter("disk_reads", results_.disk_reads);
        s.counter("singlet_forwards", results_.singlet_forwards);
      }) {
  assert(config_.clients > 0);
  assert(client_capacity_ < LruLists::kNil);
}

bool CoopCacheSim::directory_consistent() const {
  // Walk every client's list, noting which client each node sits on...
  std::vector<std::uint32_t> owner;  // by node; kNoHolder: on no list
  std::size_t cached_total = 0;
  bool ok = true;
  for (std::uint32_t c = 0; c < lists_.size(); ++c) {
    const LruLists::List& l = lists_[c];
    std::uint32_t walked = 0;
    const bool whole = nodes_.for_each(l, [&](std::uint32_t n) {
      if (n >= owner.size()) owner.resize(n + 1, kNoHolder);
      if (owner[n] != kNoHolder) ok = false;  // on two lists
      owner[n] = c;
      ++walked;
    });
    if (!whole || walked != l.size || l.size > client_capacity_) ok = false;
    cached_total += l.size;
  }
  // ...then every directory entry must be a list of distinct clients, each
  // link naming a node of that client's list that holds the block.  Links
  // of one entry name distinct clients and links of two entries distinct
  // blocks, so no node backs two links, and equal totals mean every cached
  // node is in the directory.
  std::size_t directory_total = 0;
  std::vector<std::uint32_t> clients;
  directory_.for_each([&](std::uint64_t block, const Entry& e) {
    clients.clear();
    for_each_holder(e, [&](std::uint32_t c, std::uint32_t n) {
      clients.push_back(c);
      if (n >= owner.size() || owner[n] != c || nodes_.key(n) != block) {
        ok = false;
      }
    });
    std::sort(clients.begin(), clients.end());
    if (std::adjacent_find(clients.begin(), clients.end()) != clients.end()) {
      ok = false;
    }
    if (e.recirculations > config_.nchance_limit) ok = false;
    directory_total += clients.size();
  });
  return ok && cached_total == directory_total;
}

std::size_t CoopCacheSim::holders(std::uint64_t block) const {
  const Entry* e = directory_.find(block);
  std::size_t n = 0;
  if (e != nullptr) {
    for_each_holder(*e, [&n](std::uint32_t, std::uint32_t) { ++n; });
  }
  return n;
}

void CoopCacheSim::add_holder(Entry& e, std::uint32_t client,
                              std::uint32_t node) {
  std::uint32_t h = free_holder_;
  if (h != kNoHolder) {
    free_holder_ = holder_pool_[h].next;
    holder_pool_[h] = Holder{client, node, e.rest};
  } else {
    h = static_cast<std::uint32_t>(holder_pool_.size());
    holder_pool_.push_back(Holder{client, node, e.rest});
  }
  e.rest = h;
}

void CoopCacheSim::drop_holder(Entry& e, std::uint32_t client) {
  std::uint32_t* link = &e.rest;
  if (e.client == client) {
    // The second holder moves inline and its link is freed below.
    e.client = holder_pool_[e.rest].client;
    e.node = holder_pool_[e.rest].node;
  } else {
    while (holder_pool_[*link].client != client) {
      link = &holder_pool_[*link].next;
      assert(*link != kNoHolder);
    }
  }
  const std::uint32_t h = *link;
  *link = holder_pool_[h].next;
  holder_pool_[h].next = free_holder_;
  free_holder_ = h;
}

std::uint32_t CoopCacheSim::node_of(const Entry& e,
                                    std::uint32_t client) const {
  if (e.client == client) return e.node;
  for (std::uint32_t h = e.rest; h != kNoHolder; h = holder_pool_[h].next) {
    if (holder_pool_[h].client == client) return holder_pool_[h].node;
  }
  return LruLists::kNil;
}

void CoopCacheSim::access(std::uint32_t client, std::uint64_t block,
                          bool is_write) {
  assert(client < config_.clients);
  if (is_write) {
    write(client, block);
  } else {
    read(client, block);
  }
}

CoopCacheSim::Placed CoopCacheSim::place(std::uint32_t client,
                                         std::uint64_t block) {
  LruLists::List& l = lists_[client];
  Placed p{};
  p.evicted = l.size >= client_capacity_;
  p.node = p.evicted ? nodes_.replace_lru(l, block, &p.victim)
                     : nodes_.push(l, block);
  return p;
}

void CoopCacheSim::cache_new(std::uint32_t client, std::uint64_t block,
                             Entry* e) {
  if (client_capacity_ == 0) return;
  const Placed p = place(client, block);
  if (e == nullptr) {
    directory_.find_or_insert(block, Entry{client, p.node, kNoHolder, 0});
  } else {
    add_holder(*e, client, p.node);
  }
  if (p.evicted) handle_eviction(client, p.victim);
}

void CoopCacheSim::handle_eviction(std::uint32_t client,
                                   std::uint64_t victim) {
  Entry* e = directory_.find(victim);
  assert(e != nullptr);
  const bool singlet = e->rest == kNoHolder;
  if (singlet && config_.policy == Policy::kNChance && config_.clients >= 2 &&
      e->recirculations < config_.nchance_limit) {
    // A singlet with chances left: forward it to a random other client,
    // its count going along.
    ++e->recirculations;
    ++results_.singlet_forwards;
    std::uint32_t peer = rng_.next_below(config_.clients);
    if (peer == client) peer = (peer + 1) % config_.clients;
    const Placed p = place(peer, victim);
    e->client = peer;
    e->node = p.node;
    if (p.evicted) handle_eviction(peer, p.victim);
    return;
  }
  if (singlet) {
    directory_.erase(victim);  // the last copy dies
  } else {
    drop_holder(*e, client);
  }
  if (config_.policy == Policy::kCentrallyCoordinated) {
    coordinated_.insert(victim);  // demoted into the coordinated cache
  }
}

void CoopCacheSim::read(std::uint32_t client, std::uint64_t block) {
  ++results_.reads;

  Entry* e = directory_.find(block);
  if (e != nullptr) {
    const std::uint32_t own = node_of(*e, client);
    if (own != LruLists::kNil) {
      nodes_.touch(lists_[client], own);
      ++results_.local_hits;
      e->recirculations = 0;
      return;
    }
    if (config_.policy == Policy::kGreedyForwarding ||
        config_.policy == Policy::kNChance) {
      // Forward from another client.  Deterministic choice: the smallest
      // holder id — but with rack awareness a same-rack holder always
      // beats a cross-rack one (the manager knows the topology; forwarding
      // from the next rack over costs two extra switch crossings).
      const std::uint32_t rs = config_.rack_size;
      std::uint32_t holder = kNoHolder;
      std::uint32_t holder_node = 0;
      bool holder_local = false;
      for_each_holder(*e, [&](std::uint32_t c, std::uint32_t n) {
        const bool local = rs > 0 && c / rs == client / rs;
        if (holder == kNoHolder || (local && !holder_local) ||
            (local == holder_local && c < holder)) {
          holder = c;
          holder_node = n;
          holder_local = local;
        }
      });
      ++results_.remote_client_hits;
      if (holder_local) ++results_.rack_local_peer_hits;
      nodes_.touch(lists_[holder], holder_node);
      e->recirculations = 0;
      cache_new(client, block, e);
      return;
    }
  }

  if (config_.policy == Policy::kCentrallyCoordinated &&
      coordinated_.erase(block)) {
    // Served from coordinated client DRAM and promoted into the reader's
    // local cache.
    ++results_.remote_client_hits;
    cache_new(client, block, e);
    return;
  }

  if (server_cache_.touch(block)) {
    ++results_.server_mem_hits;
    cache_new(client, block, e);
    return;
  }

  ++results_.disk_reads;
  server_cache_.insert(block);
  cache_new(client, block, e);
}

void CoopCacheSim::write(std::uint32_t client, std::uint64_t block) {
  ++results_.writes;
  // Write-through: the block lands in the local cache and the server cache
  // (timing of writes is not part of Table 3's read-response metric).
  Entry* e = directory_.find(block);
  const std::uint32_t own =
      e != nullptr ? node_of(*e, client) : LruLists::kNil;
  if (own != LruLists::kNil) {
    nodes_.touch(lists_[client], own);
  } else {
    cache_new(client, block, e);
  }
  server_cache_.insert(block);
}

}  // namespace now::coopcache
