#include "proto/am_sockets.hpp"

#include <cassert>

namespace now::proto {

AmSockets::AmSockets(AmLayer& am, AmSocketParams params)
    : am_(am), params_(params) {}

void AmSockets::bind_node(os::Node& node) {
  const net::NodeId id = node.id();
  assert(!endpoints_.contains(id));
  const EndpointId ep = am_.create_endpoint(node, AmLayer::Mode::kInterrupt);
  endpoints_[id] = ep;
  os::Node* n = &node;
  am_.register_handler(ep, kData, [this, n, id](AmMessage& m) {
    // Receive-side shim: demux to the socket and hand the data up.
    n->cpu().steal(params_.shim_cost);
    auto w = std::get<SocketData>(std::move(m.payload));
    const net::NodeId src = am_.node_of(m.src_ep).id();
    am_.engine().schedule_in(
        params_.shim_cost,
        [this, id, src, bytes = m.bytes, w = std::move(w)]() mutable {
          const auto it = listeners_.find(key(id, w.dst_port));
          assert(it != listeners_.end() && "no listener on destination port");
          AmSocketMessage msg;
          msg.src = src;
          msg.src_port = w.src_port;
          msg.bytes = bytes;
          msg.payload = std::move(w.payload);
          it->second(std::move(msg));
        });
  });
}

void AmSockets::listen(net::NodeId node, std::uint16_t port, Receiver rx) {
  listeners_[key(node, port)] = std::move(rx);
}

void AmSockets::send(net::NodeId src, std::uint16_t src_port,
                     net::NodeId dst, std::uint16_t dst_port,
                     std::uint32_t bytes, std::any payload) {
  const auto sit = endpoints_.find(src);
  const auto dit = endpoints_.find(dst);
  assert(sit != endpoints_.end() && dit != endpoints_.end());
  ++messages_;
  // Send-side shim before the AM injection.
  am_.node_of(sit->second).cpu().steal(params_.shim_cost);
  am_.send(sit->second, dit->second, kData, bytes,
           SocketData{src_port, dst_port, std::move(payload)});
}

}  // namespace now::proto
