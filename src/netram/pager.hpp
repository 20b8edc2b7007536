// Pagers: local swap disk vs network RAM.
//
// DiskPager is the classic swap device.  NetworkRamPager "replaces the swap
// device driver" (the paper's minimal-kernel-change route): evicted pages
// travel over Active-Message RPC to idle remote DRAM and come back an order
// of magnitude faster than from disk (Table 2).  When the donor pool is
// exhausted the pager falls back to the local disk, and when a donor is
// revoked or crashes it re-homes or writes off the affected pages.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "netram/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "os/disk.hpp"
#include "os/node.hpp"
#include "os/vm.hpp"
#include "proto/rpc.hpp"

namespace now::netram {

/// Swap-to-local-disk pager (the baseline of Figure 2).
class DiskPager final : public os::Pager {
 public:
  DiskPager(os::Node& node, std::uint32_t page_bytes,
            std::uint64_t swap_offset = 1ull << 30)
      : node_(node), page_bytes_(page_bytes), swap_offset_(swap_offset) {}

  void page_in(std::uint64_t page, std::function<void()> done) override;
  void page_out(std::uint64_t page, std::function<void()> done) override;

  std::uint64_t disk_reads() const { return reads_; }
  std::uint64_t disk_writes() const { return writes_; }

 private:
  /// Pages never written out read as zero fill (first touch): a cheap
  /// in-memory clear rather than a disk access.
  bool materialized(std::uint64_t page) const {
    return written_.contains(page);
  }

  os::Node& node_;
  std::uint32_t page_bytes_;
  std::uint64_t swap_offset_;
  std::unordered_map<std::uint64_t, bool> written_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

/// RPC method ids used by network-RAM donors.
inline constexpr proto::MethodId kNetRamWrite = 100;
inline constexpr proto::MethodId kNetRamRead = 101;

/// Serves donor-side page storage for a node.  Install once per donor.
void install_donor_service(proto::RpcLayer& rpc, os::Node& node);

struct NetRamStats {
  std::uint64_t remote_reads = 0;
  std::uint64_t remote_writes = 0;
  std::uint64_t disk_fallback_reads = 0;
  std::uint64_t disk_fallback_writes = 0;
  std::uint64_t rehomed_pages = 0;   // moved when a donor was revoked
  std::uint64_t lost_pages = 0;      // donor crashed before writeback
  std::uint64_t prefetches = 0;      // readahead fetches issued
  std::uint64_t prefetch_hits = 0;   // faults absorbed by readahead
};

class NetworkRamPager final : public os::Pager {
 public:
  /// Pages for a process on `client`; remote placement via `registry`,
  /// transport via `rpc`, overflow to the client's local disk.  With
  /// `readahead` on, each fault also streams the successor page in the
  /// background — sequential sweeps (the multigrid pattern) then overlap
  /// most fetch latency with compute.
  /// `readahead_window` bounds the prefetch buffer: only the most recent
  /// prefetches are retained, as in a real (memory-bounded) readahead.
  NetworkRamPager(os::Node& client, std::uint32_t page_bytes,
                  IdleMemoryRegistry& registry, proto::RpcLayer& rpc,
                  bool readahead = false, std::size_t readahead_window = 8);

  void page_in(std::uint64_t page, std::function<void()> done) override;
  void page_out(std::uint64_t page, std::function<void()> done) override;

  const NetRamStats& stats() const { return stats_; }
  /// Pages currently resident on remote donors.
  std::size_t remote_pages() const;

 private:
  struct Location {
    bool on_disk = false;
    net::NodeId donor = net::kInvalidNode;
  };

  void on_donor_gone(net::NodeId id, bool graceful);
  void store_remote(std::uint64_t page, net::NodeId donor,
                    std::function<void()> done);
  void store_disk(std::uint64_t page, std::function<void()> done);
  void maybe_prefetch(std::uint64_t page);

  os::Node& client_;
  std::uint32_t page_bytes_;
  IdleMemoryRegistry& registry_;
  proto::RpcLayer& rpc_;
  bool readahead_;
  DiskPager disk_fallback_;
  std::unordered_map<std::uint64_t, Location> where_;
  /// Pages already streamed in by readahead, awaiting their fault.
  /// Bounded FIFO: stale prefetches fall out of the window.
  std::unordered_set<std::uint64_t> prefetched_;
  std::deque<std::uint64_t> prefetch_order_;
  std::size_t readahead_window_;
  std::unordered_set<std::uint64_t> prefetch_inflight_;
  NetRamStats stats_;
  obs::TrackId obs_track_;
  obs::Collector stats_obs_;
};

}  // namespace now::netram
