// Kernel TCP/IP socket model — the commodity communication baseline.
//
// Semantics are a reliable in-order datagram-ish stream between (node,port)
// pairs with kernel buffering: delivery does not depend on the receiving
// *process* being scheduled (the kernel buffers), but every message pays the
// full protocol-stack CPU cost on both sides.  The underlying fabric is
// already reliable and FIFO in this simulator, so the model concentrates on
// what the paper measures: per-message overhead and copy-limited bandwidth.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "proto/costs.hpp"
#include "proto/nic_mux.hpp"
#include "sim/stats.hpp"

namespace now::proto {

struct TcpParams {
  ProtocolCosts costs = tcp_kernel();
  /// Wire MTU for segmentation (Ethernet 1500; the ATM driver uses 9180).
  std::uint32_t mtu_bytes = 1500;
  /// Sliding window: unacknowledged bytes in flight per connection before
  /// the sender stalls (classic 16-bit TCP window: 64 KB).
  std::uint32_t window_bytes = 64 * 1024;
};

struct TcpStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t segments = 0;
  std::uint64_t acks = 0;
  std::uint64_t window_stalls = 0;  // segments that waited for the window
  sim::Summary one_way_us;  // send() call to receive callback
};

/// One message as seen by the receiver.
struct TcpMessage {
  net::NodeId src = net::kInvalidNode;
  std::uint16_t src_port = 0;
  std::uint32_t bytes = 0;
  std::any payload;
};

class TcpLayer {
 public:
  using Receiver = std::function<void(TcpMessage&&)>;

  TcpLayer(NicMux& mux, TcpParams params);
  TcpLayer(const TcpLayer&) = delete;
  TcpLayer& operator=(const TcpLayer&) = delete;

  /// Binds a receive callback to (node, port).  The callback runs in kernel
  /// context after receiver overhead has been charged.
  void listen(net::NodeId node, std::uint16_t port, Receiver rx);

  /// Sends `bytes` from (src, src_port) to (dst, dst_port).  `on_sent`
  /// fires when the last byte has left the sender (kernel buffer accepted),
  /// which is when a blocking write() would return.
  void send(net::NodeId src, std::uint16_t src_port, net::NodeId dst,
            std::uint16_t dst_port, std::uint32_t bytes, std::any payload,
            std::function<void()> on_sent = nullptr);

  const TcpParams& params() const { return params_; }
  const TcpStats& stats() const { return stats_; }

  /// Model value: unloaded one-way time for a small message (what the paper
  /// reports as "overhead plus network latency": 456 us on Ethernet).
  sim::Duration unloaded_one_way(std::uint32_t bytes,
                                 sim::Duration wire_transit) const {
    return params_.costs.send_overhead(bytes) + wire_transit +
           params_.costs.recv_overhead(bytes);
  }

 private:
  struct WireSegment final : net::Frame {
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
    std::uint32_t seg_bytes = 0;
    std::uint32_t msg_bytes = 0;
    bool last = false;
    std::any payload;
    sim::SimTime sent_at = 0;
  };
  struct WireTcpAck final : net::Frame {
    std::uint16_t src_port = 0;  // the data sender's port being acked
    std::uint16_t dst_port = 0;  // the data receiver's port
    std::uint32_t bytes = 0;
  };
  struct PendingSegment {
    net::NodeId dst;
    WireSegment seg;
    std::function<void()> on_sent;  // fires with the final segment
  };
  struct Connection {
    std::uint32_t in_flight = 0;
    std::deque<PendingSegment> queue;
  };

  void on_ack(const net::Packet& pkt);
  void on_data(const net::Packet& pkt, WireSegment& seg);
  void pump(net::NodeId src, Connection& conn);

  NicMux& mux_;
  TcpParams params_;
  std::uint32_t data_tag_;
  std::uint32_t ack_tag_;
  // (node << 16 | port) -> receiver
  std::unordered_map<std::uint64_t, Receiver> listeners_;
  // Reassembly per (src node, src port, dst node, dst port) is implicit:
  // the fabric is FIFO, so we track bytes per connection key.
  std::unordered_map<std::uint64_t, std::uint64_t> partial_;
  std::unordered_map<std::uint64_t, Connection> connections_;
  /// Per-connection floor keeping application deliveries in order.
  std::unordered_map<std::uint64_t, sim::SimTime> deliver_floor_;
  TcpStats stats_;

  static std::uint64_t sock_key(net::NodeId n, std::uint16_t p) {
    return (static_cast<std::uint64_t>(n) << 16) | p;
  }
  static std::uint64_t conn_key(net::NodeId sn, std::uint16_t sp,
                                net::NodeId dn, std::uint16_t dp) {
    return (sock_key(sn, sp) << 32) ^ sock_key(dn, dp);
  }
};

}  // namespace now::proto
