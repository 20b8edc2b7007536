// Request/response RPC built on interrupt-mode Active Messages.
//
// GLUnix daemons, the network-RAM pager, xFS managers, the central file
// server and the RAID storage service all speak RPC.  Calls carry simulated
// sizes (bytes on the wire) and typed bodies (proto::Body); a reply handle
// lets the service answer asynchronously (e.g. after a disk access).  An
// optional timeout lets callers survive crashed servers — the path GLUnix
// and xFS recovery tests exercise.
//
// The RPC header (call id, method) rides as plain fields in the AM frame,
// and bodies move from the caller's request to the service and from the
// service's reply to the caller's callback without being copied or boxed.
// Tables are flat: one entry per node, with each node's outstanding calls
// in a recycled slot array.  A request carries its call's slot and the
// reply names it back, so a reply finds its call with one index; the call
// id kept in the slot must match the reply's, so a late reply to a slot
// that has since been freed or reused is dropped.  Every per-node entry is
// touched only from that node's lane.
//
// Services and callbacks written against `std::any` (benchmarks, examples,
// tests) still register and call unchanged: a callable that takes a
// `std::any` instead of a Body is adapted, and sees the body's opaque
// alternative (proto::opaque).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "proto/am.hpp"
#include "sim/callback.hpp"
#include "sim/slot_table.hpp"

namespace now::proto {

namespace detail {
/// Converts to a Body and to nothing else (std::any cannot hold it: it is
/// not copyable), so a callable invocable with it in a message's place
/// takes a Body there rather than a std::any.
struct BodyOnly {
  BodyOnly(const BodyOnly&) = delete;
  operator Body() const;  // NOLINT(google-explicit-constructor)
};
}  // namespace detail

class RpcLayer {
 public:
  /// Sends a call's response: `reply(resp_bytes, resp_body)`.  A small
  /// value (the layer, the replying node, the call id and its slot) that
  /// services copy into whatever continuation answers later.
  class ReplyFn {
   public:
    void operator()(std::uint32_t resp_bytes, Body resp = {}) const {
      rpc_->send_reply(self_, call_id_, slot_, resp_bytes, std::move(resp));
    }

   private:
    friend class RpcLayer;
    ReplyFn(RpcLayer* rpc, net::NodeId self, std::uint64_t call_id,
            std::uint32_t slot)
        : rpc_(rpc), call_id_(call_id), self_(self), slot_(slot) {}
    RpcLayer* rpc_;
    std::uint64_t call_id_;
    net::NodeId self_;
    std::uint32_t slot_;
  };
  /// Service implementation: (caller node, request body, reply handle).
  using Method = std::function<void(net::NodeId, Body&&, ReplyFn)>;
  /// Both live in the caller's call slot.  48 bytes holds every in-tree
  /// continuation inline: the file services capture a `this` and an op
  /// slot, the pager a `this`, a start time and a std::function.
  using ResponseFn = sim::InlinedFn<void(Body&&)>;
  using TimeoutFn = sim::InlinedFn<void()>;

  explicit RpcLayer(AmLayer& am) : am_(am) {}
  RpcLayer(const RpcLayer&) = delete;
  RpcLayer& operator=(const RpcLayer&) = delete;

  /// Creates this node's RPC endpoint.  Call once per participating node.
  void bind(os::Node& node);

  /// Registers `fn` as `method` on `node` (which must be bound).  `fn` is
  /// called as fn(caller, request, reply); the request is a Body, or a
  /// std::any for callables that take one.
  template <typename F>
  void register_method(net::NodeId node, MethodId method, F&& fn) {
    if constexpr (std::is_invocable_v<std::decay_t<F>&, net::NodeId,
                                      detail::BodyOnly, ReplyFn>) {
      add_method(node, method, Method(std::forward<F>(fn)));
    } else {
      add_method(node, method,
                 [f = std::forward<F>(fn)](net::NodeId caller, Body&& req,
                                           ReplyFn reply) mutable {
                   f(caller, opaque(std::move(req)), reply);
                 });
    }
  }

  /// Calls `method` on `to`, sending `req_bytes`.  `on_reply` runs on the
  /// caller with the response body (or its std::any) when the response
  /// arrives.  If `timeout` > 0 and no response arrives in time,
  /// `on_timeout` runs instead (a late response is then dropped).
  template <typename F>
  void call(net::NodeId from, net::NodeId to, MethodId method,
            std::uint32_t req_bytes, Body req, F&& on_reply,
            sim::Duration timeout = 0, TimeoutFn on_timeout = {}) {
    if constexpr (std::is_invocable_v<std::decay_t<F>&, detail::BodyOnly>) {
      start_call(from, to, method, req_bytes, std::move(req),
                 ResponseFn(std::forward<F>(on_reply)), timeout,
                 std::move(on_timeout));
    } else {
      start_call(from, to, method, req_bytes, std::move(req),
                 ResponseFn([f = std::forward<F>(on_reply)](
                                Body&& resp) mutable {
                   f(opaque(std::move(resp)));
                 }),
                 timeout, std::move(on_timeout));
    }
  }

  sim::Engine& engine() { return am_.engine(); }

  /// Calls, replies and timeouts so far.  The counters are atomic for
  /// partitioned runs, where every lane calls; a serial run bumps them with
  /// plain loads and stores.
  std::uint64_t calls_sent() const {
    return calls_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t replies_received() const {
    return replies_.load(std::memory_order_relaxed);
  }
  std::uint64_t timeouts() const {
    return timeouts_.load(std::memory_order_relaxed);
  }
  /// Slots `node`'s call table has grown to (its peak of outstanding calls).
  std::size_t call_slots(net::NodeId node) const {
    return nodes_[node].calls.slots.capacity();
  }

 private:
  // A slot holds both callbacks, so the timer event only names the call
  // (`this`, caller, slot, id) and fits the engine's inline buffer.
  // `call_id` is 0 while the slot is free.
  struct Outstanding {
    std::uint64_t call_id = 0;
    ResponseFn on_reply;
    TimeoutFn on_timeout;
    sim::EventId timer = 0;
  };
  // Caller-side call tracking, confined to the caller's lane: calls, their
  // timeout timers, and the responses (delivered to the caller's endpoint)
  // all execute there.  Freed slots are reused, so the table never grows
  // past the peak number of concurrently outstanding calls.
  struct CallTable {
    sim::SlotTable<Outstanding> slots;
    std::uint32_t next_seq = 1;
    /// The slot holding call `id`, or nullptr if that call is over.
    Outstanding* find(std::uint32_t slot, std::uint64_t id) {
      if (slot >= slots.capacity() || slots[slot].call_id != id) {
        return nullptr;
      }
      return &slots[slot];
    }
  };
  struct NodeState {
    EndpointId ep = kInvalidEndpoint;
    std::vector<std::pair<MethodId, Method>> methods;
    CallTable calls;
  };

  void add_method(net::NodeId node, MethodId method, Method fn);
  void start_call(net::NodeId from, net::NodeId to, MethodId method,
                  std::uint32_t req_bytes, Body req, ResponseFn on_reply,
                  sim::Duration timeout, TimeoutFn on_timeout);
  void send_reply(net::NodeId self, std::uint64_t call_id,
                  std::uint32_t slot, std::uint32_t resp_bytes, Body resp);
  void on_request(net::NodeId self, AmMessage& m);
  void on_response(net::NodeId self, AmMessage& m);
  /// Frees `slot` of `t`, returning its contents.
  static Outstanding release(CallTable& t, std::uint32_t slot);
  /// One more call, reply or timeout.
  void count(std::atomic<std::uint64_t>& counter) {
    if (am_.partitioned()) {
      counter.fetch_add(1, std::memory_order_relaxed);
    } else {
      counter.store(counter.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
    }
  }

  AmLayer& am_;
  std::vector<NodeState> nodes_;  // by node id
  std::atomic<std::uint64_t> calls_sent_{0};
  std::atomic<std::uint64_t> replies_{0};
  std::atomic<std::uint64_t> timeouts_{0};

  static constexpr HandlerId kRequestHandler = 1;
  static constexpr HandlerId kResponseHandler = 2;
};

}  // namespace now::proto
