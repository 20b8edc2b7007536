#include "net/switched.hpp"

#include <algorithm>
#include <cassert>

namespace now::net {

sim::Duration SwitchedNetwork::unloaded_transit(std::uint32_t bytes) const {
  const sim::Duration ser = params_.serialization(bytes);
  return (params_.cut_through ? ser : 2 * ser) + params_.latency;
}

// Link state and the per-downlink gauge are sized/registered here, once per
// node on the construction thread — nothing on the packet path grows a
// vector or resolves a dotted path, and partitioned lanes never mutate
// shared containers.
void SwitchedNetwork::on_attach(NodeId node) {
  if (node >= uplink_busy_.size()) {
    uplink_busy_.resize(node + 1, 0);
    downlink_busy_.resize(node + 1, 0);
    obs_downlink_q_.resize(node + 1, nullptr);
  }
  obs_downlink_q_[node] = &obs::metrics().gauge(
      "net.link" + std::to_string(node) + ".queue_us");
}

void SwitchedNetwork::send(Packet pkt) {
  assert(attached(pkt.src) && attached(pkt.dst));
  sim::Engine& src_engine = engine_for(pkt.src);
  pkt.sent_at = src_engine.now();
  {
    sim::SpinGuard g(stats_lock_);
    ++stats_.packets_sent;
    stats_.bytes_sent += pkt.size_bytes;
  }

  const sim::Duration ser = params_.serialization(pkt.size_bytes);

  // Serialize onto the source uplink (FIFO behind earlier packets).  The
  // uplink belongs to the sender, so under partitioning this state is
  // confined to the source lane.
  sim::SimTime& up = uplink_busy_[pkt.src];
  const sim::SimTime up_start = std::max(pkt.sent_at, up);
  const sim::SimTime up_done = up_start + ser;
  up = up_done;

  if (domain() != nullptr) {
    // Two-phase delivery: the downlink belongs to the receiver, and its
    // busy horizon orders *all* senders' packets, so the reservation is
    // posted as a cross-lane message and applied at the next barrier in
    // the deterministic merge order (sent_at, src_node, seq) — replaying
    // the serial send-order evolution of busy_until regardless of which
    // lane ran first.  Same-lane sends take this path too; bypassing the
    // mailbox would make contention order depend on the partition layout.
    // The closure carries only the packet and its uplink start (the rest
    // is recomputed from them) so it stays inside the inline buffer.
    const NodeId src = pkt.src;
    const NodeId dst = pkt.dst;
    const sim::SimTime sent_at = pkt.sent_at;
    auto finish = [this, up_start, p = std::move(pkt)]() mutable {
      finish_send(std::move(p), up_start);
    };
    static_assert(sim::InlinedCallback::fits_inline<decltype(finish)>(),
                  "a packet-carrying closure must not allocate");
    domain()->post(src, dst, sent_at, std::move(finish));
    return;
  }
  finish_send(std::move(pkt), up_start);
}

// Downlink contention + delivery scheduling.  Serial: called inline from
// send().  Partitioned: called at the epoch barrier; the delivery time is
// always >= sent_at + latency >= the epoch bound, so scheduling on the
// destination lane never lands in its past.
void SwitchedNetwork::finish_send(Packet pkt, sim::SimTime up_start) {
  const sim::Duration ser = params_.serialization(pkt.size_bytes);
  const sim::SimTime up_done = up_start + ser;
  sim::SimTime& down = downlink_busy_[pkt.dst];
  sim::SimTime down_done;
  if (params_.cut_through) {
    // The head crosses the fabric while the tail is still serializing, so
    // an uncontended transfer finishes one serialization after it starts;
    // a busy downlink still queues the whole packet.
    const sim::SimTime head_at_dst = up_start + params_.latency;
    const sim::SimTime down_start = std::max(head_at_dst, down);
    down_done = std::max(down_start + ser, up_done + params_.latency);
  } else {
    // Store-and-forward: the switch holds the packet until it is complete.
    const sim::SimTime at_switch = up_done + params_.latency;
    const sim::SimTime down_start = std::max(at_switch, down);
    down_done = down_start + ser;
  }
  down = down_done;
  if (obs::enabled()) {
    // Backlog on the destination link: how far its busy horizon extends
    // beyond the send instant (0 when uncontended).
    obs_downlink_q_[pkt.dst]->set(
        sim::to_us(down_done - pkt.sent_at - ser));
  }

  const NodeId dst = pkt.dst;
  auto deliver = [this, p = std::move(pkt)]() mutable {
    deliver_now(std::move(p));
  };
  static_assert(sim::InlinedCallback::fits_inline<decltype(deliver)>(),
                "a packet-carrying closure must not allocate");
  engine_for(dst).schedule_at(down_done, std::move(deliver));
}

}  // namespace now::net
