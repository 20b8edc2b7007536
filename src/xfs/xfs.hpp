// xFS: the serverless network file system.
//
// No central server: every participating workstation is client, storage
// server, and (for a slice of the block space) *manager*.  The four xFS
// ingredients from the paper, all here:
//
//  1. Anything can live anywhere and move: manager duty is a hash ring that
//     is re-pointed on failure; any client can take over for any failed
//     client, rebuilding the manager's directory from the survivors.
//  2. Multiprocessor-style write-back ownership coherence: one writer
//     (owner) xor many readers per block, invalidation on ownership
//     transfer, directory kept by the block's manager.
//  3. Storage is a log striped over the software RAID (src/raid): dirty
//     blocks batch into segments, so writes land as full-stripe RAID-5
//     writes, and a cleaner compacts dead space (src/xfs/log.hpp).
//  4. Cooperative caching: a read miss is satisfied from another client's
//     memory when the directory knows of a cached copy — the server-disk
//     trip of a central-server file system becomes a peer memory fetch.
//
// Simplification (documented): on an ownership transfer the dirty data is
// relayed through the manager (owner -> manager -> new owner) rather than
// forwarded directly; this costs one extra data hop but makes invalidation
// ordering trivially airtight.  Read forwarding IS direct (requester
// fetches from the caching peer).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "coopcache/lru.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proto/rpc.hpp"
#include "sim/stats.hpp"
#include "xfs/file_service.hpp"
#include "xfs/log.hpp"

namespace now::xfs {

struct XfsParams {
  std::uint32_t block_bytes = 8192;
  /// Per-client cache capacity in blocks.
  std::uint32_t client_cache_blocks = 2048;
  /// Blocks per log segment (write-behind batch).
  std::uint32_t segment_blocks = 64;
  /// Cleaner threshold: segments at or below this live fraction are
  /// compacted.
  double clean_threshold = 0.5;
  /// Per-attempt timeout for manager operations, and the retry budget —
  /// this is what rides out a manager takeover.
  sim::Duration op_timeout = 500 * sim::kMillisecond;
  std::uint32_t max_op_retries = 12;
  sim::Duration retry_backoff = 100 * sim::kMillisecond;
};

struct XfsStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t local_hits = 0;
  std::uint64_t peer_fetches = 0;     // cooperative-cache reads
  std::uint64_t log_reads = 0;
  std::uint64_t zero_fills = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t ownership_transfers = 0;
  std::uint64_t segments_flushed = 0;
  std::uint64_t evict_notices = 0;
  std::uint64_t op_retries = 0;
  std::uint64_t failed_ops = 0;  // retry budget exhausted (EIO)
  std::uint64_t lost_dirty_blocks = 0;  // owner crashed before flush
  std::uint64_t manager_takeovers = 0;
  /// End-to-end operation latencies, microseconds.
  sim::Summary read_latency_us;
  sim::Summary write_latency_us;
};

class Xfs final : public FileService {
 public:
  using Done = std::function<void()>;

  /// All of `nodes` act as clients and managers; storage is `log`'s RAID.
  Xfs(proto::RpcLayer& rpc, LogStore& log, std::vector<os::Node*> nodes,
      XfsParams params);
  Xfs(const Xfs&) = delete;
  Xfs& operator=(const Xfs&) = delete;

  /// Registers every node's manager + client RPC services.
  void start();

  /// Reads block `b` on behalf of `client`.  `done(false)` means the
  /// retry budget ran out (the manager stayed unreachable).
  void read(net::NodeId client, BlockId b, OpDone done) override;

  /// Writes block `b` on behalf of `client` (write-back: returns once the
  /// client holds ownership; data reaches the log on eviction or sync).
  void write(net::NodeId client, BlockId b, OpDone done) override;

  /// Flushes `client`'s write-behind buffer to the log.
  void sync(net::NodeId client, Done done);

  /// One cleaner pass driven by `driver`.
  void clean(net::NodeId driver, std::function<void(std::uint32_t)> done);

  /// Reflects a client crash (call after the node itself crashed):
  /// directory entries are purged; unflushed dirty blocks are lost and
  /// subsequent reads serve the last logged version.
  void client_crashed(net::NodeId client);

  /// Re-points the failed node's manager duty at `successor`, which
  /// rebuilds the directory by polling the surviving clients.  In-flight
  /// operations ride it out through timeout+retry.
  void manager_takeover(net::NodeId failed, net::NodeId successor,
                        Done done);

  net::NodeId manager_of(BlockId b) const;
  /// True if `id` currently holds manager duty for any slice of the block
  /// space (fault injection asks before arranging a takeover).
  bool is_manager(net::NodeId id) const;
  const XfsStats& stats() const { return stats_; }
  /// Blocks currently cached by `client` (test introspection).
  std::size_t cached_blocks(net::NodeId client) const;
  bool is_cached(net::NodeId client, BlockId b) const;
  /// True if `client` holds `b` dirty (owner with unflushed data).
  bool is_dirty(net::NodeId client, BlockId b) const;
  /// Invariant check: every block has at most one dirty holder, and that
  /// holder matches the manager's owner record.  O(total cached blocks).
  bool coherence_invariant_holds() const;
  /// The manager's current owner record for `b` (test introspection).
  net::NodeId debug_owner(BlockId b) const;

 private:
  struct BlockMeta {
    net::NodeId owner = net::kInvalidNode;
    std::unordered_set<net::NodeId> readers;
    /// Ownership transfers serialize at the manager: while one is running,
    /// later write requests queue here.  Per-pair FIFO delivery then
    /// guarantees a queued writer's revoke can never overtake the previous
    /// writer's grant.
    bool write_in_progress = false;
    std::deque<std::pair<net::NodeId, proto::RpcLayer::ReplyFn>>
        pending_writes;
  };
  struct ClientState {
    ClientState(std::uint32_t capacity) : cache(capacity) {}
    coopcache::LruCache cache;
    std::unordered_set<BlockId> dirty;   // owned, modified, still cached
    std::deque<BlockId> staged;          // evicted dirty, awaiting flush
    std::unordered_set<BlockId> staged_set;
    bool flushing = false;
  };
  void install_services(os::Node& node);
  /// Runs one ownership-transfer transaction at manager `self`.
  void manager_write(net::NodeId self, BlockId b, net::NodeId requester,
                     proto::RpcLayer::ReplyFn reply);
  ClientState& cstate(net::NodeId c) { return clients_.at(c); }
  std::unordered_map<BlockId, BlockMeta>& mstate(net::NodeId m) {
    return managers_[m];
  }

  void insert_cached(net::NodeId c, BlockId b, bool dirty);
  void handle_evicted(net::NodeId c, BlockId victim);
  void flush_segment(net::NodeId c, Done done);
  void finish_read(net::NodeId c, BlockId b, OpDone done);
  void retry_op(net::NodeId c, BlockId b, bool is_write, OpDone done,
                std::uint32_t attempts);
  void do_read(net::NodeId c, BlockId b, OpDone done,
               std::uint32_t attempts);
  void do_write(net::NodeId c, BlockId b, OpDone done,
                std::uint32_t attempts);
  bool client_has_block(net::NodeId c, BlockId b) const;

  proto::RpcLayer& rpc_;
  LogStore& log_;
  std::vector<os::Node*> nodes_;
  XfsParams params_;
  std::vector<net::NodeId> ring_;  // block -> manager assignment
  std::unordered_map<net::NodeId, ClientState> clients_;
  std::unordered_map<net::NodeId,
                     std::unordered_map<BlockId, BlockMeta>>
      managers_;
  std::unordered_set<net::NodeId> recovering_;  // managers mid-takeover
  XfsStats stats_;
  bool started_ = false;
  obs::TrackId obs_track_;
  obs::Collector stats_obs_;

  sim::Engine& engine() { return rpc_.engine(); }
  os::Node* node(net::NodeId id) const;
};

}  // namespace now::xfs
