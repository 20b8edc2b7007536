#include "xfs/central_server.hpp"

#include <stdexcept>
#include <string>

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
        const CentralFsStats& st = stats_;
        s.counter("reads", st.reads);
        s.counter("writes", st.writes);
        s.counter("local_hits", st.local_hits);
        s.counter("server_mem_hits", st.server_mem_hits);
        s.counter("server_disk_reads", st.server_disk_reads);
        s.counter("failed_ops", st.failed_ops);
        s.counter("cold_restarts", st.cold_restarts);
      }) {
  for (os::Node* c : clients) {
    if (&c->engine() != &server_.engine()) {
      throw std::invalid_argument(
          "CentralServerFs: client node " + std::to_string(c->id()) +
          " runs on another engine than server node " +
          std::to_string(server_.id()) +
          "; the central server needs a serial cluster "
          "(Partitioning::kAllGlobal)");
    }
    clients_.emplace(c->id(),
                     coopcache::LruCache(params_.client_cache_blocks));
  }
}

double CentralServerFs::availability() const {
  const CentralFsStats& s = stats_;
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
  ++stats_.cold_restarts;
  obs::tracer().instant(server_.id(), obs_track_, "cold_restart");
}

void CentralServerFs::install_server() {
  rpc_.register_method(
      server_.id(), kCfsRead,
      [this](net::NodeId, proto::Body req, proto::RpcLayer::ReplyFn reply) {
        const auto r = std::get<CfsReq>(req);
        if (server_cache_.touch(r.block)) {
          reply(kBlockBytes + 32, CfsResp{true});
          return;
        }
        // Disk read, then install in the server cache.
        server_.disk().read(r.block * kBlockBytes,
                            kBlockBytes,
                            [this, b = r.block,
                             reply = std::move(reply)]() mutable {
                              server_cache_.insert(b);
                              reply(kBlockBytes + 32,
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
        server_.disk().write(r.block * kBlockBytes,
                             kBlockBytes,
                             [reply = std::move(reply)]() mutable {
                               reply(32, {});
                             });
      });
}

void CentralServerFs::read(net::NodeId client, BlockId b, OpDone done) {
  ++stats_.reads;
  const std::uint32_t op = ops_.open(
      FileOp{client, b, /*is_write=*/false, 0, 0, std::move(done)});
  if (client_cache(client).touch(b)) {
    ++stats_.local_hits;
    // Local hit costs one block copy (Table 2's memcpy component).
    server_.engine().schedule_in(sim::from_us(250),
                                 [this, op] { close_op(op, true); });
    return;
  }
  rpc_.call(
      client, server_.id(), kCfsRead, 48, CfsReq{b, false},
      [this, op](proto::Body&& resp) {
        const auto r = std::get<CfsResp>(resp);
        ++(r.from_memory ? stats_.server_mem_hits
                         : stats_.server_disk_reads);
        client_cache(ops_[op].client).insert(ops_[op].block);
        close_op(op, true);
      },
      kOpTimeout, [this, op] { fail_op(op); });
}

void CentralServerFs::write(net::NodeId client, BlockId b, OpDone done) {
  ++stats_.writes;
  client_cache(client).insert(b);
  const std::uint32_t op = ops_.open(
      FileOp{client, b, /*is_write=*/true, 0, 0, std::move(done)});
  rpc_.call(
      client, server_.id(), kCfsWrite, kBlockBytes + 48,
      CfsReq{b, true}, [this, op](proto::Body&&) { close_op(op, true); },
      kOpTimeout, [this, op] { fail_op(op); });
}

void CentralServerFs::fail_op(std::uint32_t op) {
  // The building just lost its file system.
  ++stats_.failed_ops;
  obs::tracer().instant(ops_[op].client, obs_track_, "op_failed");
  close_op(op, false);
}

void CentralServerFs::close_op(std::uint32_t op, bool ok) {
  OpDone done = std::move(ops_.release(op).done);
  done(ok);
}

}  // namespace now::xfs
