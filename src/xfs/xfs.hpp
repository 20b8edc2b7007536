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
#include <unordered_set>
#include <vector>

#include "coopcache/lru.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proto/rpc.hpp"
#include "sim/flat_map.hpp"
#include "sim/pool_allocator.hpp"
#include "sim/slot_table.hpp"
#include "sim/stats.hpp"
#include "xfs/file_service.hpp"
#include "xfs/log.hpp"

namespace now::xfs {

struct XfsParams {
  /// Per-client cache capacity in blocks.
  std::uint32_t client_cache_blocks = 2048;
  /// Blocks per log segment (write-behind batch).
  std::uint32_t segment_blocks = 64;
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
  /// Reads and writes still in flight (test introspection).
  std::size_t ops_in_flight() const { return ops_.in_use(); }

 private:
  /// A hash set whose nodes come from sim::PoolAllocator: the same
  /// iteration order as a plain std::unordered_set, which the simulated
  /// behaviour depends on (see BlockMeta::readers), without a heap
  /// allocation per insert once warm.
  template <typename K>
  using NodeSet =
      std::unordered_set<K, std::hash<K>, std::equal_to<K>,
                         sim::PoolAllocator<K>>;

  struct BlockMeta {
    net::NodeId owner = net::kInvalidNode;
    /// Write version of the owner's grant.  A flush notice releases
    /// ownership only for the version it flushed: an owner that rewrote
    /// the block while the flush was in flight holds a newer grant.
    std::uint64_t version = 0;
    /// Its iteration order picks the peer a read is sent to and orders the
    /// invalidations of an ownership transfer.
    NodeSet<net::NodeId> readers;
    /// Ownership transfers serialize at the manager: while one is running,
    /// later write requests queue here.  Per-pair FIFO delivery then
    /// guarantees a queued writer's revoke can never overtake the previous
    /// writer's grant.
    bool write_in_progress = false;
    /// A vector, not a deque: an empty one allocates nothing, and every
    /// block the manager tracks carries one.
    std::vector<std::pair<net::NodeId, proto::RpcLayer::ReplyFn>>
        pending_writes;
  };
  struct ClientState {
    explicit ClientState(std::uint32_t capacity) : cache(capacity) {}
    coopcache::LruCache cache;
    /// Owned, modified, still cached.  Its iteration order sets the order
    /// sync() stages blocks in and a takeover report lists them.
    NodeSet<BlockId> dirty;
    std::deque<BlockId> staged;          // evicted dirty, awaiting flush
    sim::FlatMap<bool> staged_set;
    /// Write version of every block held dirty, staged or in flight to
    /// the log.
    sim::FlatMap<std::uint64_t> versions;
    bool flushing = false;
  };
  /// A manager's directory: block -> slot of its entry.  Entries are
  /// recycled, so a warm manager allocates nothing for a new entry.
  struct Directory {
    sim::FlatMap<std::uint32_t> index;
    sim::SlotTable<BlockMeta> entries;

    BlockMeta* find(BlockId b) {
      const std::uint32_t* slot = index.find(b);
      return slot == nullptr ? nullptr : &entries[*slot];
    }
    const BlockMeta* find(BlockId b) const {
      const std::uint32_t* slot = index.find(b);
      return slot == nullptr ? nullptr : &entries[*slot];
    }
    /// The entry for `b`, created empty if absent.
    BlockMeta& operator[](BlockId b);
    void erase(BlockId b);
    /// Erases `b`'s entry if it has neither an owner nor readers left.
    void erase_if_unused(BlockId b);
  };
  /// One ownership transfer at a manager: the grant waits for every
  /// invalidation and the previous owner's revoke to answer or time out.
  struct WriteTxn {
    net::NodeId manager;
    BlockId block;
    std::uint64_t version;
    std::uint32_t remaining;
    bool had_data;
    proto::RpcLayer::ReplyFn reply;
  };

  void install_services(os::Node& node);
  /// Runs one ownership-transfer transaction at manager `self`.
  void manager_write(net::NodeId self, BlockId b, net::NodeId requester,
                     proto::RpcLayer::ReplyFn reply);
  /// One party of transaction `txn` answered or timed out.
  void write_party_done(std::uint32_t txn);
  /// Sends the grant, frees the slot and starts the next queued writer.
  void grant_write(std::uint32_t txn);
  ClientState& cstate(net::NodeId c) { return clients_[c]; }
  Directory& mstate(net::NodeId m) { return managers_[m]; }

  void insert_cached(net::NodeId c, BlockId b, bool dirty);
  void handle_evicted(net::NodeId c, BlockId victim);
  void flush_segment(net::NodeId c, Done done);
  // One read or write, from issue to close, names only its slot in ops_.
  void do_read(std::uint32_t op);
  void on_read_directive(std::uint32_t op, proto::ReadDirective d);
  void finish_read(std::uint32_t op);
  void do_write(std::uint32_t op);
  void retry_op(std::uint32_t op);
  /// Records the op's latency and span, frees its slot, then calls done.
  void close_op(std::uint32_t op, bool ok);
  bool client_has_block(net::NodeId c, BlockId b) const;

  proto::RpcLayer& rpc_;
  LogStore& log_;
  std::vector<os::Node*> nodes_;
  XfsParams params_;
  std::vector<net::NodeId> ring_;  // block -> manager assignment
  // Per-node state, indexed by node id (ids not in nodes_ hold idle
  // entries).
  std::vector<os::Node*> by_id_;
  std::vector<ClientState> clients_;
  std::vector<Directory> managers_;
  std::vector<bool> recovering_;  // managers mid-takeover
  OpSlots ops_;
  sim::SlotTable<WriteTxn> txns_;
  /// Write versions are unique across all managers, so a notice quoting a
  /// grant from before a manager takeover never matches a later one.
  std::uint64_t versions_issued_ = 0;
  XfsStats stats_;
  bool started_ = false;
  obs::TrackId obs_track_;
  obs::Collector stats_obs_;

  sim::Engine& engine() { return rpc_.engine(); }
  os::Node* node(net::NodeId id) const {
    return id < by_id_.size() ? by_id_[id] : nullptr;
  }
};

}  // namespace now::xfs
