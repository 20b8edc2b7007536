// Idle-memory registry: who has spare DRAM to donate?
//
// "A huge pool of memory potentially exists on the network; this memory can
// be accessed far more quickly than local-disk storage."  The registry
// tracks which workstations currently donate DRAM and parcels it out to
// network-RAM pagers.  GLUnix flips nodes in and out of the donor set as
// users come and go; donors can also be revoked (user returned) or crash,
// and registered observers must then re-home or write off their pages.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/types.hpp"
#include "obs/metrics.hpp"
#include "os/node.hpp"

namespace now::netram {

/// Donors that left the pool, by how they left.
struct RegistryStats {
  std::uint64_t donor_revocations = 0;
  std::uint64_t donor_crashes = 0;
};

class IdleMemoryRegistry {
 public:
  /// Observer invoked when a donor leaves the pool.  `graceful` is true for
  /// a revocation (data can still be fetched while it drains) and false for
  /// a crash (contents lost).
  using DonorGone = std::function<void(net::NodeId, bool graceful)>;

  IdleMemoryRegistry();

  /// Marks `node` as donating its free DRAM.
  void add_donor(os::Node& node);

  /// Gracefully withdraws a donor (user came back): observers re-home their
  /// pages, then the node stops accepting new ones.
  void revoke_donor(net::NodeId id);

  /// Reports a donor crash: its contents are gone.
  void donor_crashed(net::NodeId id);

  bool is_donor(net::NodeId id) const;

  /// Claims `bytes` on some donor other than `exclude`; round-robin over
  /// donors with room.  Returns kInvalidNode if the pool is exhausted.
  net::NodeId acquire(std::uint64_t bytes, net::NodeId exclude);

  /// Returns `bytes` previously acquired on `id`.
  void release(net::NodeId id, std::uint64_t bytes);

  void add_observer(DonorGone fn) { observers_.push_back(std::move(fn)); }

  /// Total bytes currently donable across all donors.
  std::uint64_t pool_bytes() const;
  std::size_t donor_count() const { return donors_.size(); }
  const RegistryStats& stats() const { return stats_; }

 private:
  std::unordered_map<net::NodeId, os::Node*> donors_;
  std::vector<net::NodeId> order_;  // round-robin order
  std::size_t cursor_ = 0;
  std::vector<DonorGone> observers_;
  RegistryStats stats_;
  obs::Collector stats_obs_;

  void remove(net::NodeId id);
};

}  // namespace now::netram
