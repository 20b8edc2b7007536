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
  client_caches_.reserve(config_.clients);
  for (std::uint32_t i = 0; i < config_.clients; ++i) {
    client_caches_.emplace_back(local_capacity(config_));
  }
}

bool CoopCacheSim::directory_consistent() const {
  // Every directory entry must be a list of distinct clients, each backed
  // by the cache it names...
  bool backed = true;
  std::size_t directory_total = 0;
  directory_.for_each([&](std::uint64_t block, std::uint32_t head) {
    if (head == kNoHolder) backed = false;  // empty lists should be erased
    for (std::uint32_t h = head; h != kNoHolder; h = holder_pool_[h].next) {
      const std::uint32_t c = holder_pool_[h].client;
      if (!client_caches_[c].contains(block)) backed = false;
      for (std::uint32_t d = holder_pool_[h].next; d != kNoHolder;
           d = holder_pool_[d].next) {
        if (holder_pool_[d].client == c) backed = false;
      }
      ++directory_total;
    }
  });
  // ...and every cached block must appear in the directory.
  std::size_t cached_total = 0;
  for (const auto& cache : client_caches_) cached_total += cache.size();
  return backed && cached_total == directory_total;
}

std::size_t CoopCacheSim::holders(std::uint64_t block) const {
  const std::uint32_t* head = directory_.find(block);
  std::size_t n = 0;
  if (head == nullptr) return n;
  for (std::uint32_t h = *head; h != kNoHolder; h = holder_pool_[h].next) ++n;
  return n;
}

void CoopCacheSim::directory_add(std::uint64_t block, std::uint32_t client) {
  std::uint32_t& head = directory_.find_or_insert(block, kNoHolder);
  std::uint32_t h = free_holder_;
  if (h != kNoHolder) {
    free_holder_ = holder_pool_[h].next;
    holder_pool_[h] = Holder{client, head};
  } else {
    h = static_cast<std::uint32_t>(holder_pool_.size());
    holder_pool_.push_back(Holder{client, head});
  }
  head = h;
}

void CoopCacheSim::directory_remove(std::uint64_t block,
                                    std::uint32_t client) {
  std::uint32_t* head = directory_.find(block);
  if (head == nullptr) return;
  for (std::uint32_t* link = head; *link != kNoHolder;
       link = &holder_pool_[*link].next) {
    const std::uint32_t h = *link;
    if (holder_pool_[h].client == client) {
      *link = holder_pool_[h].next;
      holder_pool_[h].next = free_holder_;
      free_holder_ = h;
      break;
    }
  }
  if (*head == kNoHolder) directory_.erase(block);
}

std::int64_t CoopCacheSim::find_holder(std::uint64_t block,
                                       std::uint32_t except) const {
  const std::uint32_t* head = directory_.find(block);
  if (head == nullptr) return -1;
  // Deterministic choice: the smallest id other than the requester — but
  // with rack awareness a same-rack holder always beats a cross-rack one
  // (the manager knows the topology; forwarding from the next rack over
  // costs two extra switch crossings).
  const std::uint32_t rs = config_.rack_size;
  std::int64_t best = -1;
  bool best_local = false;
  for (std::uint32_t h = *head; h != kNoHolder; h = holder_pool_[h].next) {
    const std::uint32_t c = holder_pool_[h].client;
    if (c == except) continue;
    const bool local = rs > 0 && c / rs == except / rs;
    if (best < 0 || (local && !best_local) ||
        (local == best_local && static_cast<std::int64_t>(c) < best)) {
      best = c;
      best_local = local;
    }
  }
  return best;
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

void CoopCacheSim::insert_local(std::uint32_t client, std::uint64_t block) {
  if (client_caches_[client].touch(block)) return;
  std::uint64_t victim = 0;
  const bool evicted = client_caches_[client].insert(block, &victim);
  directory_add(block, client);
  if (evicted) handle_eviction(client, victim);
}

void CoopCacheSim::handle_eviction(std::uint32_t client,
                                   std::uint64_t victim) {
  directory_remove(victim, client);
  switch (config_.policy) {
    case Policy::kClientServer:
    case Policy::kGreedyForwarding:
      break;  // dropped
    case Policy::kCentrallyCoordinated: {
      // Demote into the coordinated global cache.
      std::uint64_t global_victim = 0;
      coordinated_.insert(victim, &global_victim);
      break;
    }
    case Policy::kNChance: {
      if (config_.clients < 2) break;  // no peer to forward to
      if (holders(victim) > 0) break;  // duplicate: drop quietly
      std::uint32_t& count = recirculations_.find_or_insert(victim, 0);
      if (count >= config_.nchance_limit) {
        recirculations_.erase(victim);
        break;  // circled enough; let it die
      }
      ++count;
      ++results_.singlet_forwards;
      // Forward the singlet to a random other client.
      std::uint32_t peer = rng_.next_below(config_.clients);
      if (peer == client) peer = (peer + 1) % config_.clients;
      std::uint64_t peer_victim = 0;
      const bool evicted =
          client_caches_[peer].insert(victim, &peer_victim);
      directory_add(victim, peer);
      if (evicted) handle_eviction(peer, peer_victim);
      break;
    }
  }
}

void CoopCacheSim::read(std::uint32_t client, std::uint64_t block) {
  ++results_.reads;

  if (client_caches_[client].touch(block)) {
    ++results_.local_hits;
    recirculations_.erase(block);
    return;
  }

  const bool cooperative = config_.policy == Policy::kGreedyForwarding ||
                           config_.policy == Policy::kNChance;
  if (cooperative) {
    const std::int64_t holder = find_holder(block, client);
    if (holder >= 0) {
      ++results_.remote_client_hits;
      if (config_.rack_size > 0 &&
          static_cast<std::uint32_t>(holder) / config_.rack_size ==
              client / config_.rack_size) {
        ++results_.rack_local_peer_hits;
      }
      client_caches_[static_cast<std::uint32_t>(holder)].touch(block);
      recirculations_.erase(block);
      insert_local(client, block);
      return;
    }
  }
  if (config_.policy == Policy::kCentrallyCoordinated &&
      coordinated_.contains(block)) {
    ++results_.remote_client_hits;  // served from coordinated client DRAM
    coordinated_.erase(block);      // promoted into the reader's local cache
    insert_local(client, block);
    return;
  }

  if (server_cache_.touch(block)) {
    ++results_.server_mem_hits;
    insert_local(client, block);
    return;
  }

  ++results_.disk_reads;
  server_cache_.insert(block);
  insert_local(client, block);
}

void CoopCacheSim::write(std::uint32_t client, std::uint64_t block) {
  ++results_.writes;
  // Write-through: the block lands in the local cache and the server cache
  // (timing of writes is not part of Table 3's read-response metric).
  insert_local(client, block);
  server_cache_.insert(block);
}

}  // namespace now::coopcache
