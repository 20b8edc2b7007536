// The incumbent xFS replaces: a central-server network file system.
//
// "In most network file systems, a central server machine provides the
// abstraction of a single file system... Unfortunately, a central server
// design has performance, availability, and cost drawbacks.  Any
// centralized resource will become a bottleneck with enough users."
//
// This model is that incumbent: one server node owns the cache and the
// disk; every client miss is an RPC to it, every dirty block is written
// through to it, and when it dies the building's file service dies with
// it.  The xFS comparison bench sweeps client count against both designs.
//
// The model runs serially: clients and server share one engine and one
// unlocked stats block.  The constructor throws if a partitioned cluster
// put any client on a different engine from the server.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "coopcache/lru.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proto/rpc.hpp"
#include "xfs/file_service.hpp"
#include "xfs/log.hpp"

namespace now::xfs {

inline constexpr proto::MethodId kCfsRead = 140;
inline constexpr proto::MethodId kCfsWrite = 141;

struct CentralFsParams {
  std::uint32_t client_cache_blocks = 2048;
  /// Server memory cache (the one machine whose DRAM helps everybody).
  std::uint32_t server_cache_blocks = 16384;
};

struct CentralFsStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t local_hits = 0;
  std::uint64_t server_mem_hits = 0;
  std::uint64_t server_disk_reads = 0;
  std::uint64_t failed_ops = 0;  // server down
  /// Times the server came back with an empty memory cache (see
  /// server_restarted()).  Every restart is a cold restart here — the
  /// incumbent has no peers to refill from, which is the point.
  std::uint64_t cold_restarts = 0;
};

/// A classic client/server network file system over the same RPC substrate
/// xFS uses, so the comparison isolates the architecture.
class CentralServerFs final : public FileService {
 public:
  /// `server` owns cache and disk; `clients` are everyone else.  Throws
  /// std::invalid_argument if a client runs on another engine than the
  /// server (a partitioned cluster).
  CentralServerFs(proto::RpcLayer& rpc, os::Node& server,
                  std::vector<os::Node*> clients, CentralFsParams params);
  CentralServerFs(const CentralServerFs&) = delete;
  CentralServerFs& operator=(const CentralServerFs&) = delete;

  void start();

  /// Reads block `b` on behalf of `client`: local cache, else server
  /// memory, else the server's disk.  `done(ok)` reports failure when the
  /// server is unreachable — the availability story in one bool.
  void read(net::NodeId client, BlockId b, OpDone done) override;

  /// Write-through to the server.
  void write(net::NodeId client, BlockId b, OpDone done) override;

  /// Installs blocks [0, n) in the server's memory cache, as if the
  /// working set had been read before the measurement window opened.
  /// Capacity benches call this to measure steady-state serving rather
  /// than the cold-start disk warmup (a 12.8 ms positioning cost per
  /// first touch would dominate a short horizon).  Call before start().
  void prewarm(BlockId n) {
    for (BlockId b = 0; b < n; ++b) server_cache_.insert(b);
  }

  /// Fault hooks, called by now::fault when the server node crashes and
  /// recovers.  A crash drops the server's in-memory cache — DRAM does not
  /// survive a power cycle — so the post-restart server serves every block
  /// from disk until the cache re-warms.  (Client caches survive: only the
  /// server machine died.)
  void server_crashed();
  void server_restarted();

  /// The running tallies.
  const CentralFsStats& stats() const { return stats_; }
  /// Fraction of issued operations that did NOT fail (1.0 before any op).
  /// This is the central server's availability story in one number — the
  /// xFS-vs-central comparison reports it on both sides.
  double availability() const;
  net::NodeId server_id() const { return server_.id(); }
  /// Reads and writes still in flight (test introspection).
  std::size_t ops_in_flight() const { return ops_.in_use(); }

 private:
  void install_server();
  /// Counts op `op` as failed and closes it.
  void fail_op(std::uint32_t op);
  /// Frees op `op`'s slot, then calls its done.
  void close_op(std::uint32_t op, bool ok);
  coopcache::LruCache& client_cache(net::NodeId c) { return clients_.at(c); }

  proto::RpcLayer& rpc_;
  os::Node& server_;
  CentralFsParams params_;
  /// Each client's block cache.
  std::unordered_map<net::NodeId, coopcache::LruCache> clients_;
  coopcache::LruCache server_cache_;
  /// Blocks that exist on the server disk (written at least once).
  std::unordered_set<BlockId> on_disk_;
  CentralFsStats stats_;
  OpSlots ops_;
  obs::TrackId obs_track_;
  obs::Collector stats_obs_;
};

}  // namespace now::xfs
