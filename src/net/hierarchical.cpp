#include "net/hierarchical.hpp"

#include <algorithm>
#include <cassert>
#include <string>

namespace now::net {

HierarchicalNetwork::HierarchicalNetwork(sim::Engine& engine,
                                         HierarchicalParams params)
    : Network(engine),
      params_(params),
      topo_(params.topo),
      hier_obs_("net", [this](obs::Sink& s) {
        sim::SpinGuard g(stats_lock_);
        s.counter("rack_local_packets", hstats_.rack_local_packets);
        s.counter("cross_rack_packets", hstats_.cross_rack_packets);
      }) {
  if (topo_.configured_racks() > 0) ensure_racks(topo_.configured_racks());
}

// All per-node and per-trunk state is sized (and its gauges registered)
// here, at attach time on the construction thread — the packet path below
// is pure indexed loads on flat arrays.
void HierarchicalNetwork::on_attach(NodeId node) {
  if (node >= host_up_busy_.size()) {
    host_up_busy_.resize(node + 1, 0);
    host_down_busy_.resize(node + 1, 0);
    host_down_q_.resize(node + 1, nullptr);
  }
  host_down_q_[node] = &obs::metrics().gauge(
      "net.link" + std::to_string(node) + ".queue_us");
  ensure_racks(topo_.racks_for(node));
}

void HierarchicalNetwork::ensure_racks(std::uint32_t racks) {
  const std::size_t trunks = topo_.trunk_index(racks, 0);
  if (trunks <= trunk_up_busy_.size()) return;
  const std::size_t first_new =
      trunk_up_busy_.size() / topo_.uplinks_per_rack();
  trunk_up_busy_.resize(trunks, 0);
  trunk_down_busy_.resize(trunks, 0);
  trunk_up_q_.resize(trunks, nullptr);
  for (std::uint32_t r = static_cast<std::uint32_t>(first_new); r < racks;
       ++r) {
    for (std::uint32_t s = 0; s < topo_.uplinks_per_rack(); ++s) {
      trunk_up_q_[topo_.trunk_index(r, s)] = &obs::metrics().gauge(
          "net.rack" + std::to_string(r) + ".spine" + std::to_string(s) +
          ".queue_us");
    }
  }
}

sim::Duration HierarchicalNetwork::unloaded_transit(
    NodeId src, NodeId dst, std::uint32_t bytes) const {
  const Route rt = topo_.route(src, dst);
  const sim::Duration ser = params_.fabric.serialization(bytes);
  const sim::Duration lat = rt.switch_hops * params_.fabric.latency;
  // Cut-through pipelines the serializations of consecutive links; store-
  // and-forward pays one full serialization per link occupied.
  return (params_.fabric.cut_through ? ser : rt.links * ser) + lat;
}

void HierarchicalNetwork::send(Packet pkt) {
  assert(attached(pkt.src) && attached(pkt.dst));
  sim::Engine& src_engine = engine_for(pkt.src);
  pkt.sent_at = src_engine.now();
  const bool local = topo_.rack_local(pkt.src, pkt.dst);
  {
    sim::SpinGuard g(stats_lock_);
    ++stats_.packets_sent;
    stats_.bytes_sent += pkt.size_bytes;
    if (local) {
      ++hstats_.rack_local_packets;
    } else {
      ++hstats_.cross_rack_packets;
    }
  }

  const sim::Duration ser = params_.fabric.serialization(pkt.size_bytes);

  // Hop 0, the source host uplink: owned by the sender, so under
  // partitioning this mutation is confined to the source lane.
  sim::SimTime& up = host_up_busy_[pkt.src];
  const sim::SimTime up_start = std::max(pkt.sent_at, up);
  const sim::SimTime up_done = up_start + ser;
  up = up_done;

  if (domain() != nullptr) {
    // Every hop past the source uplink touches state shared across
    // senders (trunks belong to racks, the downlink to the receiver), so
    // it is applied at the next barrier in the deterministic merge order —
    // exactly the SwitchedNetwork two-phase discipline, per hop.
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

// Walks the remaining hops — [trunk up, trunk down,] host downlink — each
// with its own busy horizon.  Serial: inline from send().  Partitioned: at
// the epoch barrier; the delivery lands at least one hop latency after
// sent_at, so scheduling on the destination lane never rewinds its clock.
void HierarchicalNetwork::finish_send(Packet pkt, sim::SimTime up_start) {
  const sim::Duration ser = params_.fabric.serialization(pkt.size_bytes);
  const sim::SimTime up_done = up_start + ser;
  const sim::Duration lat = params_.fabric.latency;
  const bool ct = params_.fabric.cut_through;
  sim::SimTime prev_start = up_start;
  sim::SimTime prev_done = up_done;
  sim::Duration trunk_wait = 0;  // ticks queued on the trunk uplink (obs)
  const auto hop = [&](sim::SimTime& busy) {
    // Cut-through: the head leaves the previous link one switch latency
    // after it *started* there; store-and-forward: after it *finished*.
    const sim::SimTime head = (ct ? prev_start : prev_done) + lat;
    const sim::SimTime start = std::max(head, busy);
    const sim::SimTime done =
        ct ? std::max(start + ser, prev_done + lat) : start + ser;
    busy = done;
    prev_start = start;
    prev_done = done;
    return start - head;  // time spent queued behind earlier packets
  };

  const Route rt = topo_.route(pkt.src, pkt.dst);
  if (!rt.rack_local) {
    trunk_wait =
        hop(trunk_up_busy_[topo_.trunk_index(rt.src_rack, rt.spine)]);
    hop(trunk_down_busy_[topo_.trunk_index(rt.dst_rack, rt.spine)]);
  }
  hop(host_down_busy_[pkt.dst]);

  if (obs::enabled()) {
    if (!rt.rack_local) {
      trunk_up_q_[topo_.trunk_index(rt.src_rack, rt.spine)]->set(
          sim::to_us(trunk_wait));
    }
    // Backlog on the destination host link: how far its busy horizon
    // extends beyond the send instant (0 when uncontended) — the same
    // receive-contention signal the flat fabric exposes.
    host_down_q_[pkt.dst]->set(sim::to_us(prev_done - pkt.sent_at - ser));
  }

  const NodeId dst = pkt.dst;
  auto deliver = [this, p = std::move(pkt)]() mutable {
    deliver_now(std::move(p));
  };
  static_assert(sim::InlinedCallback::fits_inline<decltype(deliver)>(),
                "a packet-carrying closure must not allocate");
  engine_for(dst).schedule_at(prev_done, std::move(deliver));
}

}  // namespace now::net
