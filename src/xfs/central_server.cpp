#include "xfs/central_server.hpp"

#include <cassert>

namespace now::xfs {

namespace {
using proto::CfsReq;
using proto::CfsResp;
constexpr sim::Duration kOpTimeout = 500 * sim::kMillisecond;
}  // namespace

CentralServerFs::CentralServerFs(proto::RpcLayer& rpc, os::Node& server,
                                 std::vector<os::Node*> clients,
                                 CentralFsParams params)
    : rpc_(rpc), server_(server), params_(params),
      server_cache_(params.server_cache_blocks),
      obs_track_(obs::tracer().track("cfs")),
      stats_obs_("central", [this](obs::Sink& s) {
        const CentralFsStats st = stats();
        s.counter("reads", st.reads);
        s.counter("writes", st.writes);
        s.counter("local_hits", st.local_hits);
        s.counter("server_mem_hits", st.server_mem_hits);
        s.counter("server_disk_reads", st.server_disk_reads);
        s.counter("failed_ops", st.failed_ops);
        s.counter("cold_restarts", st.cold_restarts);
      }) {
  for (os::Node* c : clients) {
    clients_.emplace(c->id(), ClientState(params_.client_cache_blocks, c));
  }
}

double CentralServerFs::availability() const {
  const CentralFsStats s = stats();
  const std::uint64_t issued = s.reads + s.writes;
  if (issued == 0) return 1.0;
  return 1.0 - static_cast<double>(s.failed_ops) /
                   static_cast<double>(issued);
}

void CentralServerFs::start() { install_server(); }

void CentralServerFs::server_crashed() {
  // The server's DRAM cache dies with the machine.  Before this hook the
  // model wrongly kept the warm cache across the outage, which flattered
  // the incumbent's recovery: the first post-restart reads hit memory
  // instead of paying the disk.
  server_cache_.clear();
}

void CentralServerFs::server_restarted() {
  count(&CentralFsStats::cold_restarts);
  obs::tracer().instant(server_.id(), obs_track_, "cold_restart");
}

void CentralServerFs::install_server() {
  rpc_.register_method(
      server_.id(), kCfsRead,
      [this](net::NodeId, proto::Body req, proto::RpcLayer::ReplyFn reply) {
        const auto r = std::get<CfsReq>(req);
        if (server_cache_.touch(r.block)) {
          reply(params_.block_bytes + 32, CfsResp{true});
          return;
        }
        // Disk read, then install in the server cache.
        server_.disk().read(r.block * params_.block_bytes,
                            params_.block_bytes,
                            [this, b = r.block,
                             reply = std::move(reply)]() mutable {
                              server_cache_.insert(b);
                              reply(params_.block_bytes + 32,
                                    CfsResp{false});
                            });
      });
  rpc_.register_method(
      server_.id(), kCfsWrite,
      [this](net::NodeId, proto::Body req, proto::RpcLayer::ReplyFn reply) {
        const auto r = std::get<CfsReq>(req);
        server_cache_.insert(r.block);
        on_disk_.insert(r.block);
        // Write-through to the server disk.
        server_.disk().write(r.block * params_.block_bytes,
                             params_.block_bytes,
                             [reply = std::move(reply)]() mutable {
                               reply(32, {});
                             });
      });
}

void CentralServerFs::read(net::NodeId client, BlockId b, OpDone done) {
  count(&CentralFsStats::reads);
  ClientState& cs = cstate(client);
  if (cs.cache.touch(b)) {
    count(&CentralFsStats::local_hits);
    // Local hit costs one block copy (Table 2's memcpy component),
    // charged on the client's own lane engine: a hit never leaves the
    // client machine, so it must not schedule into another lane's queue.
    cs.node->engine().schedule_in(sim::from_us(250),
                                  [done = std::move(done)] { done(true); });
    return;
  }
  rpc_.call(
      client, server_.id(), kCfsRead, 48, CfsReq{b, false},
      [this, client, b, done](proto::Body resp) mutable {
        const auto r = std::get<CfsResp>(resp);
        count(r.from_memory ? &CentralFsStats::server_mem_hits
                            : &CentralFsStats::server_disk_reads);
        cstate(client).cache.insert(b);
        done(true);
      },
      kOpTimeout,
      [this, client, done]() mutable {
        // The building just lost its file system.
        count(&CentralFsStats::failed_ops);
        obs::tracer().instant(client, obs_track_, "op_failed");
        done(false);
      });
}

void CentralServerFs::write(net::NodeId client, BlockId b, OpDone done) {
  count(&CentralFsStats::writes);
  cstate(client).cache.insert(b);
  rpc_.call(
      client, server_.id(), kCfsWrite, params_.block_bytes + 48,
      CfsReq{b, true},
      [done](proto::Body) mutable { done(true); }, kOpTimeout,
      [this, client, done]() mutable {
        count(&CentralFsStats::failed_ops);
        obs::tracer().instant(client, obs_track_, "op_failed");
        done(false);
      });
}

}  // namespace now::xfs
