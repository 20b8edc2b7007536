// Conventional sockets built on Active Messages.
//
// "Constructing conventional sockets on top of this layer, we see a
// one-way message time of about 25 us, nearly an order of magnitude
// faster than TCP or single-copy TCP on the same hardware."
//
// The shim keeps the TcpLayer's (node, port) datagram-stream interface so
// existing socket code ports unchanged, but rides user-level AM: per
// message it adds only a small demultiplex/copy cost on each side on top
// of the AM path.  Reliability and ordering come from AM's go-back-N.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "proto/am.hpp"

namespace now::proto {

struct AmSocketParams {
  /// Socket-layer shim cost per side per message (buffer bookkeeping,
  /// descriptor demux) — the delta between raw AM and "sockets on AM".
  sim::Duration shim_cost = 4 * sim::kMicrosecond;
};

struct AmSocketMessage {
  net::NodeId src = net::kInvalidNode;
  std::uint16_t src_port = 0;
  std::uint32_t bytes = 0;
  std::any payload;
};

class AmSockets {
 public:
  using Receiver = std::function<void(AmSocketMessage&&)>;

  AmSockets(AmLayer& am, AmSocketParams params = {});
  AmSockets(const AmSockets&) = delete;
  AmSockets& operator=(const AmSockets&) = delete;

  /// Creates this node's socket endpoint.  Once per participating node.
  void bind_node(os::Node& node);

  /// Binds a receive callback to (node, port).
  void listen(net::NodeId node, std::uint16_t port, Receiver rx);

  /// Sends `bytes` to (dst, dst_port); ordering per (src,dst) pair is
  /// AM's.
  void send(net::NodeId src, std::uint16_t src_port, net::NodeId dst,
            std::uint16_t dst_port, std::uint32_t bytes, std::any payload);

  std::uint64_t messages() const { return messages_; }

 private:
  AmLayer& am_;
  AmSocketParams params_;
  std::unordered_map<net::NodeId, EndpointId> endpoints_;
  std::unordered_map<std::uint64_t, Receiver> listeners_;
  std::uint64_t messages_ = 0;

  static std::uint64_t key(net::NodeId n, std::uint16_t p) {
    return (static_cast<std::uint64_t>(n) << 16) | p;
  }
  static constexpr HandlerId kData = 1;
};

}  // namespace now::proto
