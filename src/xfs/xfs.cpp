#include "xfs/xfs.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <unordered_map>

namespace now::xfs {

namespace {
constexpr proto::MethodId kXfsRead = 130;
constexpr proto::MethodId kXfsWrite = 131;
constexpr proto::MethodId kInvalidate = 132;
constexpr proto::MethodId kRevoke = 133;
constexpr proto::MethodId kPeerFetch = 134;
constexpr proto::MethodId kFlushed = 135;
constexpr proto::MethodId kEvicted = 136;
constexpr proto::MethodId kReport = 137;

using proto::BlockReq;
using proto::EvictNotice;
using proto::FetchReply;
using proto::FlushedBlock;
using proto::FlushNotice;
using proto::ReadDirective;
using proto::ReadSource;
using proto::ReportEntry;
using proto::WriteGrant;
}  // namespace

Xfs::Xfs(proto::RpcLayer& rpc, LogStore& log, std::vector<os::Node*> nodes,
         XfsParams params)
    : rpc_(rpc), log_(log), nodes_(std::move(nodes)), params_(params),
      obs_track_(obs::tracer().track("xfs")),
      stats_obs_("xfs", [this](obs::Sink& s) {
        s.counter("reads", stats_.reads);
        s.counter("writes", stats_.writes);
        s.counter("local_hits", stats_.local_hits);
        s.counter("peer_fetches", stats_.peer_fetches);
        s.counter("log_reads", stats_.log_reads);
        s.counter("zero_fills", stats_.zero_fills);
        s.counter("invalidations", stats_.invalidations);
        s.counter("ownership_transfers", stats_.ownership_transfers);
        s.counter("segments_flushed", stats_.segments_flushed);
        s.counter("evict_notices", stats_.evict_notices);
        s.counter("op_retries", stats_.op_retries);
        s.counter("failed_ops", stats_.failed_ops);
        s.counter("lost_dirty_blocks", stats_.lost_dirty_blocks);
        s.counter("manager_takeovers", stats_.manager_takeovers);
        s.summary("read_latency_us", stats_.read_latency_us);
        s.summary("write_latency_us", stats_.write_latency_us);
      }) {
  assert(nodes_.size() >= 2);
  std::size_t ids = 0;
  for (os::Node* n : nodes_) {
    ring_.push_back(n->id());
    ids = std::max<std::size_t>(ids, n->id() + 1);
  }
  by_id_.resize(ids, nullptr);
  for (os::Node* n : nodes_) by_id_[n->id()] = n;
  clients_.reserve(ids);
  for (std::size_t i = 0; i < ids; ++i) {
    clients_.emplace_back(params_.client_cache_blocks);
  }
  managers_.resize(ids);
  recovering_.resize(ids, false);
}

Xfs::BlockMeta& Xfs::Directory::operator[](BlockId b) {
  if (BlockMeta* meta = find(b)) return *meta;
  const std::uint32_t slot = entries.open(BlockMeta{});
  index.find_or_insert(b, slot);
  return entries[slot];
}

void Xfs::Directory::erase(BlockId b) {
  const std::uint32_t* slot = index.find(b);
  if (slot == nullptr) return;
  entries.release(*slot);
  index.erase(b);
}

void Xfs::Directory::erase_if_unused(BlockId b) {
  const BlockMeta* meta = find(b);
  if (meta != nullptr && meta->owner == net::kInvalidNode &&
      meta->readers.empty()) {
    erase(b);
  }
}

net::NodeId Xfs::manager_of(BlockId b) const {
  return ring_[b % ring_.size()];
}

bool Xfs::is_manager(net::NodeId id) const {
  for (net::NodeId m : ring_) {
    if (m == id) return true;
  }
  return false;
}

std::size_t Xfs::cached_blocks(net::NodeId client) const {
  return clients_.at(client).cache.size();
}

bool Xfs::is_cached(net::NodeId client, BlockId b) const {
  return clients_.at(client).cache.contains(b);
}

bool Xfs::is_dirty(net::NodeId client, BlockId b) const {
  const ClientState& cs = clients_.at(client);
  return cs.dirty.contains(b) || cs.staged_set.find(b) != nullptr;
}

net::NodeId Xfs::debug_owner(BlockId b) const {
  const BlockMeta* meta = managers_.at(manager_of(b)).find(b);
  return meta == nullptr ? net::kInvalidNode : meta->owner;
}

bool Xfs::coherence_invariant_holds() const {
  // 1. At most one dirty holder per block.
  std::unordered_map<BlockId, net::NodeId> dirty_holder;
  for (net::NodeId c = 0; c < clients_.size(); ++c) {
    const ClientState& cs = clients_[c];
    auto check = [&](BlockId b) {
      const auto [it, fresh] = dirty_holder.emplace(b, c);
      return fresh || it->second == c;
    };
    for (const BlockId b : cs.dirty) {
      if (!check(b)) return false;
    }
    for (const BlockId b : cs.staged) {
      if (!check(b)) return false;
    }
  }
  // 2. A manager's owner record points at a node that actually holds the
  //    block dirty (or the record is for in-flight state, tolerated only
  //    when the node still caches the block).
  bool ok = true;
  for (const Directory& dir : managers_) {
    dir.index.for_each([&](BlockId b, std::uint32_t slot) {
      const BlockMeta& meta = dir.entries[slot];
      if (meta.owner == net::kInvalidNode) return;
      if (meta.owner >= clients_.size() || node(meta.owner) == nullptr ||
          !client_has_block(meta.owner, b)) {
        ok = false;
      }
    });
  }
  return ok;
}

bool Xfs::client_has_block(net::NodeId c, BlockId b) const {
  const ClientState& cs = clients_[c];
  return cs.cache.contains(b) || cs.staged_set.find(b) != nullptr;
}

void Xfs::start() {
  assert(!started_);
  started_ = true;
  for (os::Node* n : nodes_) install_services(*n);
}

void Xfs::install_services(os::Node& node) {
  const net::NodeId self = node.id();

  // ---- Manager-side services ----------------------------------------
  rpc_.register_method(
      self, kXfsRead,
      [this, self](net::NodeId, proto::Body req,
                   proto::RpcLayer::ReplyFn reply) {
        if (recovering_[self]) {
          reply(32, ReadDirective{ReadSource::kRetry, net::kInvalidNode});
          return;
        }
        const auto r = std::get<BlockReq>(req);
        BlockMeta& meta = mstate(self)[r.block];
        ReadDirective d;
        const auto alive = [this](net::NodeId id) {
          const os::Node* n = this->node(id);
          return n != nullptr && n->alive();
        };
        if (meta.owner != net::kInvalidNode && meta.owner != r.requester &&
            alive(meta.owner)) {
          d = ReadDirective{ReadSource::kPeer, meta.owner};
        } else {
          d.source = ReadSource::kZero;
          for (const net::NodeId peer : meta.readers) {
            if (peer != r.requester && alive(peer) &&
                client_has_block(peer, r.block)) {
              d = ReadDirective{ReadSource::kPeer, peer};
              break;
            }
          }
          if (d.source != ReadSource::kPeer) {
            d.source = log_.in_log(r.block) ? ReadSource::kLog
                                            : ReadSource::kZero;
          }
        }
        meta.readers.insert(r.requester);
        reply(32, d);
      });

  rpc_.register_method(
      self, kXfsWrite,
      [this, self](net::NodeId, proto::Body req,
                   proto::RpcLayer::ReplyFn reply) {
        if (recovering_[self]) {
          reply(32, WriteGrant{false, true});
          return;
        }
        const auto r = std::get<BlockReq>(req);
        BlockMeta& meta = mstate(self)[r.block];
        if (meta.write_in_progress) {
          // Serialize ownership transfers per block; see BlockMeta.
          meta.pending_writes.emplace_back(r.requester, std::move(reply));
          return;
        }
        manager_write(self, r.block, r.requester, std::move(reply));
      });

  rpc_.register_method(
      self, kFlushed,
      [this, self](net::NodeId, proto::Body req,
                   proto::RpcLayer::ReplyFn reply) {
        const auto notice = std::get<FlushNotice>(req);
        Directory& dir = mstate(self);
        for (const auto& [b, version] : notice.blocks) {
          BlockMeta* meta = dir.find(b);
          if (meta == nullptr) continue;
          if (meta->owner == notice.writer) {
            // The writer rewrote the block after this flush began: its
            // newer grant still stands.
            if (meta->version != version) continue;
            meta->owner = net::kInvalidNode;
          }
          meta->readers.erase(notice.writer);
          dir.erase_if_unused(b);
        }
        reply(16, {});
      });

  rpc_.register_method(
      self, kEvicted,
      [this, self](net::NodeId, proto::Body req,
                   proto::RpcLayer::ReplyFn reply) {
        const auto notice = std::get<EvictNotice>(req);
        Directory& dir = mstate(self);
        if (BlockMeta* meta = dir.find(notice.block)) {
          meta->readers.erase(notice.client);
          dir.erase_if_unused(notice.block);
        }
        reply(16, {});
      });

  // ---- Client-side services ------------------------------------------
  rpc_.register_method(
      self, kInvalidate,
      [this, self](net::NodeId, proto::Body req,
                   proto::RpcLayer::ReplyFn reply) {
        const auto b = std::get<BlockId>(req);
        ClientState& cs = cstate(self);
        cs.cache.erase(b);
        cs.dirty.erase(b);
        reply(16, {});
      });

  rpc_.register_method(
      self, kRevoke,
      [this, self](net::NodeId, proto::Body req,
                   proto::RpcLayer::ReplyFn reply) {
        const auto b = std::get<BlockId>(req);
        ClientState& cs = cstate(self);
        cs.cache.erase(b);
        cs.dirty.erase(b);
        cs.versions.erase(b);
        if (cs.staged_set.erase(b)) {
          std::erase(cs.staged, b);
        }
        // The reply carries the (possibly dirty) data to the manager.
        reply(kBlockBytes + 16, {});
      });

  rpc_.register_method(
      self, kPeerFetch,
      [this, self](net::NodeId, proto::Body req,
                   proto::RpcLayer::ReplyFn reply) {
        const auto b = std::get<BlockId>(req);
        ClientState& cs = cstate(self);
        const bool found = client_has_block(self, b);
        if (cs.cache.contains(b)) cs.cache.touch(b);
        reply(found ? kBlockBytes + 16 : 16, FetchReply{found});
      });

  rpc_.register_method(
      self, kReport,
      [this, self](net::NodeId, proto::Body req,
                   proto::RpcLayer::ReplyFn reply) {
        const auto mgr = std::get<net::NodeId>(req);
        const ClientState& cs = cstate(self);
        std::vector<ReportEntry> entries;
        auto consider = [&](BlockId b, bool dirty) {
          if (manager_of(b) == mgr) {
            const std::uint64_t* version = cs.versions.find(b);
            assert(version != nullptr);
            entries.push_back({b, dirty, *version});
          }
        };
        // LruCache has no iteration; report from the coherence-relevant
        // sets the client keeps: dirty + staged, plus reads are rebuilt
        // lazily (a stale directory miss just falls back to the log).
        for (const BlockId b : cs.dirty) consider(b, true);
        for (const BlockId b : cs.staged) consider(b, true);
        const auto bytes =
            static_cast<std::uint32_t>(16 + entries.size() * 16);
        reply(bytes, std::move(entries));
      });
}

void Xfs::manager_write(net::NodeId self, BlockId b, net::NodeId requester,
                        proto::RpcLayer::ReplyFn reply) {
  BlockMeta& meta = mstate(self)[b];
  meta.write_in_progress = true;
  const net::NodeId prev_owner =
      (meta.owner != net::kInvalidNode && meta.owner != requester)
          ? meta.owner
          : net::kInvalidNode;
  const std::uint64_t version = ++versions_issued_;
  const std::uint32_t txn =
      txns_.open(WriteTxn{self, b, version, 0, false, std::move(reply)});

  // Everyone else who holds a copy must give it up.  Calls only send, so
  // no answer arrives before the count below is complete.
  for (const net::NodeId peer : meta.readers) {
    if (peer == requester || peer == meta.owner) continue;
    ++txns_[txn].remaining;
    ++stats_.invalidations;
    rpc_.call(self, peer, kInvalidate, 32, b,
              [this, txn](proto::Body&&) { write_party_done(txn); },
              params_.op_timeout, [this, txn] { write_party_done(txn); });
  }
  if (prev_owner != net::kInvalidNode) {
    ++txns_[txn].remaining;
    ++stats_.ownership_transfers;
    rpc_.call(self, prev_owner, kRevoke, 32, b,
              [this, txn](proto::Body&&) {
                txns_[txn].had_data = true;
                write_party_done(txn);
              },
              params_.op_timeout, [this, txn] { write_party_done(txn); });
  }

  meta.owner = requester;
  meta.version = version;
  meta.readers.clear();
  meta.readers.insert(requester);
  if (txns_[txn].remaining == 0) grant_write(txn);
}

void Xfs::write_party_done(std::uint32_t txn) {
  if (--txns_[txn].remaining == 0) grant_write(txn);
}

void Xfs::grant_write(std::uint32_t txn) {
  const WriteTxn t = txns_.release(txn);
  t.reply(t.had_data ? kBlockBytes + 32 : 32,
          WriteGrant{t.had_data, false, t.version});
  BlockMeta& m = mstate(t.manager)[t.block];
  if (m.pending_writes.empty()) {
    m.write_in_progress = false;
    return;
  }
  auto [next_requester, next_reply] = std::move(m.pending_writes.front());
  m.pending_writes.erase(m.pending_writes.begin());
  // The grant reply above was sent before the revoke this transaction is
  // about to issue, and the AM pair is FIFO, so ordering is safe.
  manager_write(t.manager, t.block, next_requester, std::move(next_reply));
}

void Xfs::read(net::NodeId client, BlockId b, OpDone done) {
  ++stats_.reads;
  do_read(ops_.open(
      FileOp{client, b, /*is_write=*/false, 0, engine().now(),
             std::move(done)}));
}

void Xfs::write(net::NodeId client, BlockId b, OpDone done) {
  ++stats_.writes;
  do_write(ops_.open(
      FileOp{client, b, /*is_write=*/true, 0, engine().now(),
             std::move(done)}));
}

void Xfs::close_op(std::uint32_t op, bool ok) {
  FileOp o = ops_.release(op);
  const sim::SimTime now = engine().now();
  if (o.is_write) {
    stats_.write_latency_us.add(sim::to_us(now - o.t0));
    obs::tracer().complete(o.client, obs_track_, "xfs.write", o.t0, now);
  } else {
    stats_.read_latency_us.add(sim::to_us(now - o.t0));
    obs::tracer().complete(o.client, obs_track_, "xfs.read", o.t0, now);
  }
  o.done(ok);
}

void Xfs::retry_op(std::uint32_t op) {
  ++stats_.op_retries;
  engine().schedule_in(params_.retry_backoff, [this, op] {
    FileOp& o = ops_[op];
    ++o.attempts;
    if (o.is_write) {
      do_write(op);
    } else {
      do_read(op);
    }
  });
}

void Xfs::do_read(std::uint32_t op) {
  const FileOp& o = ops_[op];
  const net::NodeId c = o.client;
  const BlockId b = o.block;
  ClientState& cs = cstate(c);
  if (cs.cache.contains(b) || cs.staged_set.find(b) != nullptr) {
    ++stats_.local_hits;
    cs.cache.touch(b);
    engine().schedule_in(node(c)->copy_cost(kBlockBytes),
                         [this, op] { close_op(op, true); });
    return;
  }
  if (o.attempts > params_.max_op_retries) {
    // Out of patience (manager unreachable): the op fails, as EIO would
    // in a real FS.  Counted so availability is measurable.
    ++stats_.failed_ops;
    obs::tracer().instant(c, obs_track_, "op_failed");
    close_op(op, false);
    return;
  }
  rpc_.call(
      c, manager_of(b), kXfsRead, 48, BlockReq{b, c},
      [this, op](proto::Body&& resp) {
        on_read_directive(op, std::get<ReadDirective>(resp));
      },
      params_.op_timeout, [this, op] { retry_op(op); });
}

void Xfs::on_read_directive(std::uint32_t op, ReadDirective d) {
  const net::NodeId c = ops_[op].client;
  const BlockId b = ops_[op].block;
  switch (d.source) {
    case ReadSource::kRetry:
      retry_op(op);
      return;
    case ReadSource::kZero:
      ++stats_.zero_fills;
      engine().schedule_in(node(c)->copy_cost(kBlockBytes) / 4,
                           [this, op] { finish_read(op); });
      return;
    case ReadSource::kLog:
      ++stats_.log_reads;
      log_.read_block(c, b, [this, op] { finish_read(op); });
      return;
    case ReadSource::kPeer:
      rpc_.call(
          c, d.peer, kPeerFetch, 32, b,
          [this, op](proto::Body&& fr) {
            if (std::get<FetchReply>(fr).found) {
              ++stats_.peer_fetches;
              finish_read(op);
            } else {
              // Peer dropped it in the meantime: ask again.
              retry_op(op);
            }
          },
          params_.op_timeout, [this, op] { retry_op(op); });
      return;
  }
}

void Xfs::finish_read(std::uint32_t op) {
  insert_cached(ops_[op].client, ops_[op].block, /*dirty=*/false);
  close_op(op, true);
}

void Xfs::do_write(std::uint32_t op) {
  const FileOp& o = ops_[op];
  const net::NodeId c = o.client;
  const BlockId b = o.block;
  ClientState& cs = cstate(c);
  if (cs.cache.contains(b) && cs.dirty.contains(b)) {
    ++stats_.local_hits;
    cs.cache.touch(b);
    engine().schedule_in(node(c)->copy_cost(kBlockBytes),
                         [this, op] { close_op(op, true); });
    return;
  }
  if (o.attempts > params_.max_op_retries) {
    ++stats_.failed_ops;
    obs::tracer().instant(c, obs_track_, "op_failed");
    close_op(op, false);
    return;
  }
  rpc_.call(
      c, manager_of(b), kXfsWrite, 48, BlockReq{b, c},
      [this, op](proto::Body&& resp) {
        const auto grant = std::get<WriteGrant>(resp);
        if (grant.retry) {
          retry_op(op);
          return;
        }
        const net::NodeId client = ops_[op].client;
        const BlockId block = ops_[op].block;
        ClientState& state = cstate(client);
        // A staged older version is superseded by this new ownership.
        if (state.staged_set.erase(block)) {
          std::erase(state.staged, block);
        }
        state.versions.find_or_insert(block) = grant.version;
        insert_cached(client, block, /*dirty=*/true);
        close_op(op, true);
      },
      params_.op_timeout, [this, op] { retry_op(op); });
}

void Xfs::insert_cached(net::NodeId c, BlockId b, bool dirty) {
  ClientState& cs = cstate(c);
  if (dirty) cs.dirty.insert(b);
  std::uint64_t victim = 0;
  const bool evicted = cs.cache.insert(b, &victim);
  if (evicted) handle_evicted(c, victim);
}

void Xfs::handle_evicted(net::NodeId c, BlockId victim) {
  ClientState& cs = cstate(c);
  if (cs.dirty.erase(victim) > 0) {
    // Dirty data enters the write-behind buffer bound for the log.
    if (cs.staged_set.find(victim) == nullptr) {
      cs.staged.push_back(victim);
      cs.staged_set.find_or_insert(victim);
    }
    if (cs.staged.size() >=
        static_cast<std::size_t>(params_.segment_blocks)) {
      flush_segment(c, [] {});
    }
    return;
  }
  // Clean copy dropped: tell the directory (fire and forget).
  ++stats_.evict_notices;
  rpc_.call(c, manager_of(victim), kEvicted, 48, EvictNotice{victim, c},
            [](proto::Body) {});
}

void Xfs::flush_segment(net::NodeId c, Done done) {
  ClientState& cs = cstate(c);
  if (cs.flushing) {
    // One flush at a time; the caller re-checks (sync() loops).
    engine().schedule_in(sim::kMillisecond, std::move(done));
    return;
  }
  if (cs.staged.empty()) {
    done();
    return;
  }
  cs.flushing = true;
  const std::size_t take = std::min<std::size_t>(cs.staged.size(),
                                                 params_.segment_blocks);
  std::vector<BlockId> batch(cs.staged.begin(),
                             cs.staged.begin() +
                                 static_cast<std::ptrdiff_t>(take));
  cs.staged.erase(cs.staged.begin(),
                  cs.staged.begin() + static_cast<std::ptrdiff_t>(take));
  // The versions going to the log: the owner may rewrite a block (a new
  // grant) before this flush completes.
  std::vector<FlushedBlock> flushed;
  flushed.reserve(take);
  for (const BlockId b : batch) {
    const std::uint64_t* version = cs.versions.find(b);
    assert(version != nullptr);
    flushed.push_back({b, *version});
  }

  const sim::SimTime flush_t0 = engine().now();
  log_.append_segment(c, batch, [this, c, flushed = std::move(flushed),
                                 flush_t0, done = std::move(done)]() mutable {
    ++stats_.segments_flushed;
    obs::tracer().complete(c, obs_track_, "xfs.flush_segment", flush_t0,
                           engine().now());
    ClientState& state = cstate(c);
    // Group the notifications per manager.
    std::unordered_map<net::NodeId, std::vector<FlushedBlock>> per_mgr;
    for (const FlushedBlock& f : flushed) {
      // A block rewritten since the flush began is dirty again under its
      // newer version; anything else is now clean here.
      const std::uint64_t* version = state.versions.find(f.block);
      if (version == nullptr || *version == f.version) {
        state.staged_set.erase(f.block);
        if (version != nullptr) state.versions.erase(f.block);
      }
      per_mgr[manager_of(f.block)].push_back(f);
    }
    for (auto& [mgr, blocks] : per_mgr) {
      const auto bytes =
          static_cast<std::uint32_t>(32 + blocks.size() * 8);
      rpc_.call(c, mgr, kFlushed, bytes,
                FlushNotice{std::move(blocks), c}, [](proto::Body) {});
    }
    state.flushing = false;
    done();
  });
}

void Xfs::sync(net::NodeId client, Done done) {
  ClientState& cs = cstate(client);
  // Dirty blocks still in the cache are committed too: they stage for the
  // log and stay cached as clean copies (ownership is released when the
  // flush notice reaches their managers).
  for (const BlockId b : cs.dirty) {
    if (cs.staged_set.find(b) == nullptr) {
      cs.staged.push_back(b);
      cs.staged_set.find_or_insert(b);
    }
  }
  cs.dirty.clear();
  if (cs.staged.empty() && !cs.flushing) {
    done();
    return;
  }
  flush_segment(client, [this, client, done = std::move(done)]() mutable {
    sync(client, std::move(done));
  });
}

void Xfs::clean(net::NodeId driver,
                std::function<void(std::uint32_t)> done) {
  // Cleaner threshold: segments at or below this live fraction are
  // compacted.
  constexpr double kCleanThreshold = 0.5;
  const sim::SimTime t0 = engine().now();
  log_.clean(driver, kCleanThreshold,
             [this, driver, t0, done = std::move(done)](std::uint32_t n) {
               if (n > 0) {
                 obs::tracer().complete(driver, obs_track_, "xfs.clean", t0,
                                        engine().now());
               }
               done(n);
             });
}

void Xfs::client_crashed(net::NodeId client) {
  std::vector<BlockId> blocks;
  for (Directory& dir : managers_) {
    // Erasing reorders the index, so collect the blocks first.
    blocks.clear();
    dir.index.for_each(
        [&](BlockId b, std::uint32_t) { blocks.push_back(b); });
    for (const BlockId b : blocks) {
      BlockMeta& meta = *dir.find(b);
      meta.readers.erase(client);
      if (meta.owner == client) {
        meta.owner = net::kInvalidNode;
        // Whatever wasn't flushed is gone; readers will get the last
        // logged version (or zero fill).
        ++stats_.lost_dirty_blocks;
      }
      dir.erase_if_unused(b);
    }
  }
  // The node's memory is gone.
  if (client < clients_.size()) {
    clients_[client] = ClientState(params_.client_cache_blocks);
  }
}

void Xfs::manager_takeover(net::NodeId failed, net::NodeId successor,
                           Done done) {
  ++stats_.manager_takeovers;
  obs::tracer().instant(successor, obs_track_, "manager_takeover");
  for (net::NodeId& m : ring_) {
    if (m == failed) m = successor;
  }
  managers_[failed] = Directory{};  // its directory died with it
  recovering_[successor] = true;

  // Rebuild the directory from the survivors' reports.
  std::vector<net::NodeId> survivors;
  for (os::Node* n : nodes_) {
    if (n->id() != failed && n->alive()) survivors.push_back(n->id());
  }
  if (survivors.empty()) {
    recovering_[successor] = false;
    engine().schedule_in(0, [done = std::move(done)] {
      if (done) done();
    });
    return;
  }
  auto remaining = std::make_shared<std::size_t>(survivors.size());
  auto finish = [this, successor, remaining,
                 done = std::move(done)]() mutable {
    if (--*remaining > 0) return;
    recovering_[successor] = false;
    if (done) done();
  };
  for (const net::NodeId peer : survivors) {
    rpc_.call(successor, peer, kReport, 32, successor,
              [this, successor, peer, finish](proto::Body resp) mutable {
                const auto& entries =
                    std::get<std::vector<ReportEntry>>(resp);
                Directory& dir = mstate(successor);
                for (const ReportEntry& e : entries) {
                  BlockMeta& meta = dir[e.block];
                  meta.readers.insert(peer);
                  if (e.dirty) {
                    meta.owner = peer;
                    meta.version = e.version;
                  }
                }
                finish();
              },
              params_.op_timeout, [finish]() mutable { finish(); });
  }
}

}  // namespace now::xfs
