#include "proto/rpc.hpp"

#include <algorithm>
#include <cassert>

namespace now::proto {

void RpcLayer::bind(os::Node& node) {
  const net::NodeId id = node.id();
  if (id >= nodes_.size()) nodes_.resize(id + 1);
  assert(nodes_[id].ep == kInvalidEndpoint && "node bound twice");
  const EndpointId ep = am_.create_endpoint(node, AmLayer::Mode::kInterrupt);
  nodes_[id].ep = ep;
  am_.register_handler(ep, kRequestHandler,
                       [this, id](AmMessage& m) { on_request(id, m); });
  am_.register_handler(ep, kResponseHandler,
                       [this, id](AmMessage& m) { on_response(id, m); });
}

void RpcLayer::add_method(net::NodeId node, MethodId method, Method fn) {
  assert(node < nodes_.size() && nodes_[node].ep != kInvalidEndpoint &&
         "register_method before bind");
  auto& methods = nodes_[node].methods;
  const auto it = std::find_if(methods.begin(), methods.end(),
                               [method](const auto& m) {
                                 return m.first == method;
                               });
  if (it != methods.end()) {
    it->second = std::move(fn);
  } else {
    methods.emplace_back(method, std::move(fn));
  }
}

void RpcLayer::start_call(net::NodeId from, net::NodeId to, MethodId method,
                          std::uint32_t req_bytes, Body req,
                          ResponseFn on_reply, sim::Duration timeout,
                          TimeoutFn on_timeout) {
  assert(from < nodes_.size() && nodes_[from].ep != kInvalidEndpoint);
  assert(to < nodes_.size() && nodes_[to].ep != kInvalidEndpoint);
  CallTable& t = nodes_[from].calls;
  // Ids are caller-scoped (high word = caller node), so concurrent lanes
  // never contend on a shared counter and a response unambiguously names
  // its caller's table.
  const std::uint64_t id =
      (static_cast<std::uint64_t>(from) << 32) | t.next_seq++;
  count(calls_sent_);

  const std::uint32_t slot = t.slots.open(
      Outstanding{id, std::move(on_reply), std::move(on_timeout), 0});
  if (timeout > 0) {
    // The timer lives on the caller's lane, like everything in its table.
    // A reply cancels it, so when it fires the call is still outstanding.
    sim::Engine& eng = am_.engine_of(am_.node_of(nodes_[from].ep));
    t.slots[slot].timer = eng.schedule_in(timeout, [this, from, slot, id] {
      CallTable& ct = nodes_[from].calls;
      if (ct.find(slot, id) == nullptr) return;
      Outstanding expired = release(ct, slot);
      count(timeouts_);
      if (expired.on_timeout) expired.on_timeout();
    });
  }

  am_.send(nodes_[from].ep, nodes_[to].ep, kRequestHandler, req_bytes,
           std::move(req), nullptr, RpcHeader{id, method, slot});
}

RpcLayer::Outstanding RpcLayer::release(CallTable& t, std::uint32_t slot) {
  Outstanding out = t.slots.release(slot);
  t.slots[slot].call_id = 0;
  return out;
}

void RpcLayer::send_reply(net::NodeId self, std::uint64_t call_id,
                          std::uint32_t slot, std::uint32_t resp_bytes,
                          Body resp) {
  const auto caller = static_cast<net::NodeId>(call_id >> 32);
  am_.send(nodes_[self].ep, nodes_[caller].ep, kResponseHandler, resp_bytes,
           std::move(resp), nullptr, RpcHeader{call_id, 0, slot});
}

void RpcLayer::on_request(net::NodeId self, AmMessage& m) {
  auto& methods = nodes_[self].methods;
  const auto it = std::find_if(methods.begin(), methods.end(),
                               [&m](const auto& e) {
                                 return e.first == m.rpc.method;
                               });
  assert(it != methods.end() && "RPC method not registered");
  const auto caller = static_cast<net::NodeId>(m.rpc.call_id >> 32);
  it->second(caller, std::move(m.payload),
             ReplyFn(this, self, m.rpc.call_id, m.rpc.slot));
}

void RpcLayer::on_response(net::NodeId self, AmMessage& m) {
  CallTable& t = nodes_[self].calls;
  // A reply after its call's timeout finds its slot free or holding a
  // later call: dropped.
  if (t.find(m.rpc.slot, m.rpc.call_id) == nullptr) return;
  Outstanding out = release(t, m.rpc.slot);
  count(replies_);
  if (out.timer != 0) {
    am_.engine_of(am_.node_of(nodes_[self].ep)).cancel(out.timer);
  }
  if (out.on_reply) out.on_reply(std::move(m.payload));
}

}  // namespace now::proto
