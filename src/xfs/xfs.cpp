#include "xfs/xfs.hpp"

#include <cassert>
#include <memory>

#include "sim/log.hpp"

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
  for (os::Node* n : nodes_) {
    ring_.push_back(n->id());
    clients_.emplace(n->id(), ClientState(params_.client_cache_blocks));
    managers_.emplace(n->id(),
                      std::unordered_map<BlockId, BlockMeta>{});
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

os::Node* Xfs::node(net::NodeId id) const {
  for (os::Node* n : nodes_) {
    if (n->id() == id) return n;
  }
  return nullptr;
}

std::size_t Xfs::cached_blocks(net::NodeId client) const {
  return clients_.at(client).cache.size();
}

bool Xfs::is_cached(net::NodeId client, BlockId b) const {
  return clients_.at(client).cache.contains(b);
}

bool Xfs::is_dirty(net::NodeId client, BlockId b) const {
  const ClientState& cs = clients_.at(client);
  return cs.dirty.contains(b) || cs.staged_set.contains(b);
}

net::NodeId Xfs::debug_owner(BlockId b) const {
  const auto mit = managers_.find(manager_of(b));
  if (mit == managers_.end()) return net::kInvalidNode;
  const auto it = mit->second.find(b);
  return it == mit->second.end() ? net::kInvalidNode : it->second.owner;
}

bool Xfs::coherence_invariant_holds() const {
  // 1. At most one dirty holder per block.
  std::unordered_map<BlockId, net::NodeId> dirty_holder;
  for (const auto& [c, cs] : clients_) {
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
  for (const auto& [mgr, map] : managers_) {
    for (const auto& [b, meta] : map) {
      if (meta.owner == net::kInvalidNode) continue;
      const auto it = clients_.find(meta.owner);
      if (it == clients_.end()) return false;
      if (!it->second.cache.contains(b) &&
          !it->second.staged_set.contains(b)) {
        return false;
      }
    }
  }
  return true;
}

bool Xfs::client_has_block(net::NodeId c, BlockId b) const {
  const ClientState& cs = clients_.at(c);
  return cs.cache.contains(b) || cs.staged_set.contains(b);
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
        if (recovering_.contains(self)) {
          reply(32, ReadDirective{ReadSource::kRetry, net::kInvalidNode});
          return;
        }
        const auto r = std::get<BlockReq>(req);
        auto& map = mstate(self);
        BlockMeta& meta = map[r.block];
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
        if (recovering_.contains(self)) {
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
        auto& map = mstate(self);
        for (const BlockId b : notice.blocks) {
          const auto it = map.find(b);
          if (it == map.end()) continue;
          if (it->second.owner == notice.writer) {
            it->second.owner = net::kInvalidNode;
          }
          it->second.readers.erase(notice.writer);
          if (it->second.owner == net::kInvalidNode &&
              it->second.readers.empty()) {
            map.erase(it);
          }
        }
        reply(16, {});
      });

  rpc_.register_method(
      self, kEvicted,
      [this, self](net::NodeId, proto::Body req,
                   proto::RpcLayer::ReplyFn reply) {
        const auto notice = std::get<EvictNotice>(req);
        auto& map = mstate(self);
        const auto it = map.find(notice.block);
        if (it != map.end()) {
          it->second.readers.erase(notice.client);
          if (it->second.owner == net::kInvalidNode &&
              it->second.readers.empty()) {
            map.erase(it);
          }
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
        if (cs.staged_set.erase(b) > 0) {
          std::erase(cs.staged, b);
        }
        // The reply carries the (possibly dirty) data to the manager.
        reply(params_.block_bytes + 16, {});
      });

  rpc_.register_method(
      self, kPeerFetch,
      [this, self](net::NodeId, proto::Body req,
                   proto::RpcLayer::ReplyFn reply) {
        const auto b = std::get<BlockId>(req);
        ClientState& cs = cstate(self);
        const bool found = client_has_block(self, b);
        if (cs.cache.contains(b)) cs.cache.touch(b);
        reply(found ? params_.block_bytes + 16 : 16, FetchReply{found});
      });

  rpc_.register_method(
      self, kReport,
      [this, self](net::NodeId, proto::Body req,
                   proto::RpcLayer::ReplyFn reply) {
        const auto mgr = std::get<net::NodeId>(req);
        const ClientState& cs = clients_.at(self);
        std::vector<ReportEntry> entries;
        auto consider = [&](BlockId b, bool dirty) {
          if (manager_of(b) == mgr) entries.push_back({b, dirty});
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

  // Collect everyone who must give up their copy.
  std::vector<net::NodeId> to_invalidate;
  for (const net::NodeId peer : meta.readers) {
    if (peer != requester && peer != meta.owner) {
      to_invalidate.push_back(peer);
    }
  }
  const net::NodeId prev_owner =
      (meta.owner != net::kInvalidNode && meta.owner != requester)
          ? meta.owner
          : net::kInvalidNode;

  meta.owner = requester;
  meta.readers.clear();
  meta.readers.insert(requester);

  auto complete = [this, self, b](proto::RpcLayer::ReplyFn rep,
                                  bool had_data) {
    rep(had_data ? params_.block_bytes + 32 : 32,
        WriteGrant{had_data, false});
    BlockMeta& m = mstate(self)[b];
    if (m.pending_writes.empty()) {
      m.write_in_progress = false;
      return;
    }
    auto [next_requester, next_reply] = std::move(m.pending_writes.front());
    m.pending_writes.pop_front();
    // The grant reply above was sent before the revoke this transaction is
    // about to issue, and the AM pair is FIFO, so ordering is safe.
    manager_write(self, b, next_requester, std::move(next_reply));
  };

  const std::size_t parties =
      to_invalidate.size() + (prev_owner != net::kInvalidNode ? 1 : 0);
  if (parties == 0) {
    complete(std::move(reply), false);
    return;
  }
  auto remaining = std::make_shared<std::size_t>(parties);
  auto had_data = std::make_shared<bool>(false);
  auto finish = [remaining, had_data, complete = std::move(complete),
                 reply = std::move(reply)]() mutable {
    if (--*remaining > 0) return;
    complete(std::move(reply), *had_data);
  };
  for (const net::NodeId peer : to_invalidate) {
    ++stats_.invalidations;
    rpc_.call(self, peer, kInvalidate, 32, b,
              [finish](proto::Body) mutable { finish(); },
              params_.op_timeout, [finish]() mutable { finish(); });
  }
  if (prev_owner != net::kInvalidNode) {
    ++stats_.ownership_transfers;
    rpc_.call(self, prev_owner, kRevoke, 32, b,
              [finish, had_data](proto::Body) mutable {
                *had_data = true;
                finish();
              },
              params_.op_timeout, [finish]() mutable { finish(); });
  }
}

void Xfs::read(net::NodeId client, BlockId b, OpDone done) {
  ++stats_.reads;
  const sim::SimTime t0 = engine().now();
  do_read(client, b,
          [this, client, t0, done = std::move(done)](bool ok) mutable {
            stats_.read_latency_us.add(sim::to_us(engine().now() - t0));
            obs::tracer().complete(client, obs_track_, "xfs.read", t0,
                                   engine().now());
            done(ok);
          },
          0);
}

void Xfs::finish_read(net::NodeId c, BlockId b, OpDone done) {
  insert_cached(c, b, /*dirty=*/false);
  done(true);
}

void Xfs::retry_op(net::NodeId c, BlockId b, bool is_write, OpDone done,
                   std::uint32_t attempts) {
  ++stats_.op_retries;
  engine().schedule_in(params_.retry_backoff,
                       [this, c, b, is_write, done = std::move(done),
                        attempts]() mutable {
                         if (is_write) {
                           do_write(c, b, std::move(done), attempts + 1);
                         } else {
                           do_read(c, b, std::move(done), attempts + 1);
                         }
                       });
}

void Xfs::do_read(net::NodeId c, BlockId b, OpDone done,
                  std::uint32_t attempts) {
  ClientState& cs = cstate(c);
  if (cs.cache.contains(b) || cs.staged_set.contains(b)) {
    ++stats_.local_hits;
    cs.cache.touch(b);
    engine().schedule_in(node(c)->copy_cost(params_.block_bytes),
                         [done = std::move(done)] { done(true); });
    return;
  }
  if (attempts > params_.max_op_retries) {
    // Out of patience (manager unreachable): the op fails, as EIO would
    // in a real FS.  Counted so availability is measurable.
    ++stats_.failed_ops;
    obs::tracer().instant(c, obs_track_, "op_failed");
    done(false);
    return;
  }
  rpc_.call(
      c, manager_of(b), kXfsRead, 48, BlockReq{b, c},
      [this, c, b, done, attempts](proto::Body resp) mutable {
        const auto d = std::get<ReadDirective>(resp);
        switch (d.source) {
          case ReadSource::kRetry:
            retry_op(c, b, false, std::move(done), attempts);
            return;
          case ReadSource::kZero:
            ++stats_.zero_fills;
            engine().schedule_in(
                node(c)->copy_cost(params_.block_bytes) / 4,
                [this, c, b, done = std::move(done)]() mutable {
                  finish_read(c, b, std::move(done));
                });
            return;
          case ReadSource::kLog:
            ++stats_.log_reads;
            log_.read_block(c, b,
                            [this, c, b, done = std::move(done)]() mutable {
                              finish_read(c, b, std::move(done));
                            });
            return;
          case ReadSource::kPeer:
            rpc_.call(
                c, d.peer, kPeerFetch, 32, b,
                [this, c, b, done, attempts](proto::Body fr) mutable {
                  if (std::get<FetchReply>(fr).found) {
                    ++stats_.peer_fetches;
                    finish_read(c, b, std::move(done));
                  } else {
                    // Peer dropped it in the meantime: ask again.
                    retry_op(c, b, false, std::move(done), attempts);
                  }
                },
                params_.op_timeout,
                [this, c, b, done, attempts]() mutable {
                  retry_op(c, b, false, std::move(done), attempts);
                });
            return;
        }
      },
      params_.op_timeout,
      [this, c, b, done, attempts]() mutable {
        retry_op(c, b, false, std::move(done), attempts);
      });
}

void Xfs::write(net::NodeId client, BlockId b, OpDone done) {
  ++stats_.writes;
  const sim::SimTime t0 = engine().now();
  do_write(client, b,
           [this, client, t0, done = std::move(done)](bool ok) mutable {
             stats_.write_latency_us.add(sim::to_us(engine().now() - t0));
             obs::tracer().complete(client, obs_track_, "xfs.write", t0,
                                    engine().now());
             done(ok);
           },
           0);
}

void Xfs::do_write(net::NodeId c, BlockId b, OpDone done,
                   std::uint32_t attempts) {
  ClientState& cs = cstate(c);
  if (cs.cache.contains(b) && cs.dirty.contains(b)) {
    ++stats_.local_hits;
    cs.cache.touch(b);
    engine().schedule_in(node(c)->copy_cost(params_.block_bytes),
                         [done = std::move(done)] { done(true); });
    return;
  }
  if (attempts > params_.max_op_retries) {
    ++stats_.failed_ops;
    obs::tracer().instant(c, obs_track_, "op_failed");
    done(false);
    return;
  }
  rpc_.call(
      c, manager_of(b), kXfsWrite, 48, BlockReq{b, c},
      [this, c, b, done, attempts](proto::Body resp) mutable {
        const auto grant = std::get<WriteGrant>(resp);
        if (grant.retry) {
          retry_op(c, b, true, std::move(done), attempts);
          return;
        }
        ClientState& state = cstate(c);
        // A staged older version is superseded by this new ownership.
        if (state.staged_set.erase(b) > 0) std::erase(state.staged, b);
        insert_cached(c, b, /*dirty=*/true);
        done(true);
      },
      params_.op_timeout,
      [this, c, b, done, attempts]() mutable {
        retry_op(c, b, true, std::move(done), attempts);
      });
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
    if (!cs.staged_set.contains(victim)) {
      cs.staged.push_back(victim);
      cs.staged_set.insert(victim);
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

  const sim::SimTime flush_t0 = engine().now();
  log_.append_segment(c, batch, [this, c, batch, flush_t0,
                                 done = std::move(done)]() mutable {
    ++stats_.segments_flushed;
    obs::tracer().complete(c, obs_track_, "xfs.flush_segment", flush_t0,
                           engine().now());
    ClientState& state = cstate(c);
    // Group the notifications per manager.
    std::unordered_map<net::NodeId, std::vector<BlockId>> per_mgr;
    for (const BlockId b : batch) {
      state.staged_set.erase(b);
      per_mgr[manager_of(b)].push_back(b);
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
    if (!cs.staged_set.contains(b)) {
      cs.staged.push_back(b);
      cs.staged_set.insert(b);
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
  const sim::SimTime t0 = engine().now();
  log_.clean(driver, params_.clean_threshold,
             [this, driver, t0, done = std::move(done)](std::uint32_t n) {
               if (n > 0) {
                 obs::tracer().complete(driver, obs_track_, "xfs.clean", t0,
                                        engine().now());
               }
               done(n);
             });
}

void Xfs::client_crashed(net::NodeId client) {
  for (auto& [mgr, map] : managers_) {
    for (auto it = map.begin(); it != map.end();) {
      BlockMeta& meta = it->second;
      meta.readers.erase(client);
      if (meta.owner == client) {
        meta.owner = net::kInvalidNode;
        // Whatever wasn't flushed is gone; readers will get the last
        // logged version (or zero fill).
        ++stats_.lost_dirty_blocks;
      }
      if (meta.owner == net::kInvalidNode && meta.readers.empty()) {
        it = map.erase(it);
      } else {
        ++it;
      }
    }
  }
  // The node's memory is gone.
  auto it = clients_.find(client);
  if (it != clients_.end()) {
    clients_.erase(it);
    clients_.emplace(client, ClientState(params_.client_cache_blocks));
  }
}

void Xfs::manager_takeover(net::NodeId failed, net::NodeId successor,
                           Done done) {
  ++stats_.manager_takeovers;
  obs::tracer().instant(successor, obs_track_, "manager_takeover");
  sim::LogStream(sim::LogLevel::kInfo, engine().now(), "xfs")
      << "manager takeover: node " << failed << " -> node " << successor;
  for (net::NodeId& m : ring_) {
    if (m == failed) m = successor;
  }
  managers_.erase(failed);  // its directory died with it
  recovering_.insert(successor);

  // Rebuild the directory from the survivors' reports.
  std::vector<net::NodeId> survivors;
  for (os::Node* n : nodes_) {
    if (n->id() != failed && n->alive()) survivors.push_back(n->id());
  }
  if (survivors.empty()) {
    recovering_.erase(successor);
    engine().schedule_in(0, [done = std::move(done)] {
      if (done) done();
    });
    return;
  }
  auto remaining = std::make_shared<std::size_t>(survivors.size());
  auto finish = [this, successor, remaining,
                 done = std::move(done)]() mutable {
    if (--*remaining > 0) return;
    recovering_.erase(successor);
    if (done) done();
  };
  for (const net::NodeId peer : survivors) {
    rpc_.call(successor, peer, kReport, 32, successor,
              [this, successor, peer, finish](proto::Body resp) mutable {
                const auto& entries =
                    std::get<std::vector<ReportEntry>>(resp);
                auto& map = mstate(successor);
                for (const ReportEntry& e : entries) {
                  BlockMeta& meta = map[e.block];
                  meta.readers.insert(peer);
                  if (e.dirty) meta.owner = peer;
                }
                finish();
              },
              params_.op_timeout, [finish]() mutable { finish(); });
  }
}

}  // namespace now::xfs
