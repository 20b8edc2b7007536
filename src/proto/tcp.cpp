#include "proto/tcp.hpp"

#include <algorithm>
#include <cassert>

namespace now::proto {

TcpLayer::TcpLayer(NicMux& mux, TcpParams params)
    : mux_(mux), params_(params) {
  // One tag per frame type, so arrival needs no type test.
  data_tag_ = mux_.register_layer([this](net::Packet&& pkt) {
    on_data(pkt, static_cast<WireSegment&>(*pkt.frame));
  });
  ack_tag_ = mux_.register_layer(
      [this](net::Packet&& pkt) { on_ack(pkt); });
}

void TcpLayer::listen(net::NodeId node, std::uint16_t port, Receiver rx) {
  listeners_[sock_key(node, port)] = std::move(rx);
}

void TcpLayer::send(net::NodeId src, std::uint16_t src_port, net::NodeId dst,
                    std::uint16_t dst_port, std::uint32_t bytes,
                    std::any payload, std::function<void()> on_sent) {
  os::Node* sn = mux_.node(src);
  assert(sn != nullptr);
  if (!sn->alive()) return;
  ++stats_.messages_sent;
  const sim::SimTime call_time = mux_.engine().now();
  Connection& conn = connections_[conn_key(src, src_port, dst, dst_port)];

  const std::uint32_t nsegs =
      bytes == 0 ? 1 : (bytes + params_.mtu_bytes - 1) / params_.mtu_bytes;
  std::uint32_t remaining = bytes;
  for (std::uint32_t i = 0; i < nsegs; ++i) {
    const std::uint32_t seg =
        bytes == 0 ? 0 : std::min(remaining, params_.mtu_bytes);
    remaining -= seg;
    const bool last = (i + 1 == nsegs);
    PendingSegment p;
    p.dst = dst;
    p.seg.src_port = src_port;
    p.seg.dst_port = dst_port;
    p.seg.seg_bytes = seg;
    p.seg.msg_bytes = bytes;
    p.seg.last = last;
    p.seg.sent_at = call_time;
    if (last) {
      p.seg.payload = std::move(payload);
      p.on_sent = std::move(on_sent);
    }
    conn.queue.push_back(std::move(p));
  }
  pump(src, conn);
}

void TcpLayer::pump(net::NodeId src, Connection& conn) {
  os::Node* sn = mux_.node(src);
  assert(sn != nullptr);
  while (!conn.queue.empty() &&
         conn.in_flight + conn.queue.front().seg.seg_bytes <=
             params_.window_bytes) {
    PendingSegment p = std::move(conn.queue.front());
    conn.queue.pop_front();
    conn.in_flight += p.seg.seg_bytes;

    // Each segment pays stack CPU on the sender; the per-node stack queue
    // serializes segments, so host overhead caps throughput.
    const sim::Duration o_s = params_.costs.send_overhead(p.seg.seg_bytes);
    sn->cpu().steal(o_s);
    const sim::SimTime inject_at = mux_.reserve_stack(src, o_s);
    ++stats_.segments;

    net::Packet pkt;
    pkt.src = src;
    pkt.dst = p.dst;
    pkt.size_bytes = p.seg.seg_bytes + 40;  // TCP/IP headers
    pkt.tag = data_tag_;
    pkt.frame = std::make_unique<WireSegment>(std::move(p.seg));
    auto inject = [this, q = std::move(pkt)]() mutable {
      mux_.send(std::move(q));
    };
    static_assert(sim::InlinedCallback::fits_inline<decltype(inject)>(),
                  "a packet-carrying closure must not allocate");
    mux_.engine().schedule_at(inject_at, std::move(inject));
    if (p.on_sent) {
      // A blocking write() returns once the kernel accepted the last byte.
      mux_.engine().schedule_at(inject_at, std::move(p.on_sent));
    }
  }
  if (!conn.queue.empty()) ++stats_.window_stalls;
}

void TcpLayer::on_ack(const net::Packet& pkt) {
  // Ack at the data sender: open the window.
  const auto& ack = static_cast<const WireTcpAck&>(*pkt.frame);
  os::Node* sn = mux_.node(pkt.dst);
  assert(sn != nullptr);
  sn->cpu().steal(params_.costs.recv_fixed / params_.ack_cost_divisor);
  Connection& conn = connections_[conn_key(pkt.dst, ack.src_port, pkt.src,
                                           ack.dst_port)];
  conn.in_flight -= std::min(conn.in_flight, ack.bytes);
  pump(pkt.dst, conn);
}

void TcpLayer::on_data(const net::Packet& pkt, WireSegment& seg) {
  os::Node* dn = mux_.node(pkt.dst);
  assert(dn != nullptr);
  const sim::Duration o_r = params_.costs.recv_overhead(seg.seg_bytes);
  dn->cpu().steal(o_r);

  // Return the ack (kernel-level, cheap).
  ++stats_.acks;
  const sim::Duration ack_cost =
      params_.costs.send_fixed / params_.ack_cost_divisor;
  dn->cpu().steal(ack_cost);
  const sim::SimTime ack_at = mux_.reserve_stack(pkt.dst, ack_cost);
  net::Packet ack;
  ack.src = pkt.dst;
  ack.dst = pkt.src;
  ack.size_bytes = 40;
  ack.tag = ack_tag_;
  auto frame = std::make_unique<WireTcpAck>();
  frame->src_port = seg.src_port;
  frame->dst_port = seg.dst_port;
  frame->bytes = seg.seg_bytes;
  ack.frame = std::move(frame);
  auto inject = [this, a = std::move(ack)]() mutable {
    mux_.send(std::move(a));
  };
  static_assert(sim::InlinedCallback::fits_inline<decltype(inject)>(),
                "a packet-carrying closure must not allocate");
  mux_.engine().schedule_at(ack_at, std::move(inject));

  const std::uint64_t ck =
      conn_key(pkt.src, seg.src_port, pkt.dst, seg.dst_port);
  std::uint64_t& got = partial_[ck];
  got += seg.seg_bytes;
  if (!seg.last) return;

  assert(got == seg.msg_bytes);
  got = 0;

  TcpMessage msg;
  msg.src = pkt.src;
  msg.src_port = seg.src_port;
  msg.bytes = seg.msg_bytes;
  msg.payload = std::move(seg.payload);
  const std::uint16_t dst_port = seg.dst_port;
  const net::NodeId dst = pkt.dst;
  const sim::SimTime sent_at = seg.sent_at;
  // The application sees the data after the kernel's receive processing.
  // Deliveries on one connection must stay in order even though o_r varies
  // with the final segment's size (a small message's cheap processing must
  // not overtake a big predecessor still in the kernel).
  sim::SimTime& floor = deliver_floor_[ck];
  const sim::SimTime deliver_at =
      std::max(mux_.engine().now() + o_r, floor + 1);
  floor = deliver_at;
  mux_.engine().schedule_at(
      deliver_at,
      [this, dn, dst, dst_port, sent_at, m = std::move(msg)]() mutable {
        if (!dn->alive()) return;
        ++stats_.messages_delivered;
        stats_.one_way_us.add(sim::to_us(mux_.engine().now() - sent_at));
        const auto it = listeners_.find(sock_key(dst, dst_port));
        assert(it != listeners_.end() && "no listener on destination port");
        it->second(std::move(m));
      });
}

}  // namespace now::proto
