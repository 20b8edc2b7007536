#include "net/network.hpp"

#include <cassert>

namespace now::net {

sim::Duration FabricParams::serialization(std::uint32_t bytes) const {
  std::uint64_t wire_bytes = bytes + header_bytes;
  if (cell_bytes > 0 && cell_payload_bytes > 0) {
    const std::uint64_t cells =
        (bytes + cell_payload_bytes - 1) / cell_payload_bytes;
    wire_bytes = (cells == 0 ? 1 : cells) * cell_bytes;
  }
  const double seconds =
      static_cast<double>(wire_bytes) * 8.0 / link_bandwidth_bps;
  return sim::from_sec(seconds);
}

Network::Network(sim::Engine& engine)
    : engine_(engine),
      obs_track_(obs::tracer().track("net")),
      stats_obs_("net", [this](obs::Sink& s) {
        sim::SpinGuard g(stats_lock_);
        s.counter("packets_sent", stats_.packets_sent);
        s.counter("packets_delivered", stats_.packets_delivered);
        s.counter("packets_dropped", stats_.packets_dropped);
        s.counter("link_drops", stats_.link_drops);
        s.counter("bytes_sent", stats_.bytes_sent);
        s.summary("wire_time_us", stats_.wire_time_us);
      }) {}

void Network::attach(NodeId node, DeliveryHandler handler,
                     std::uint32_t rx_buffer_bytes) {
  if (node >= ports_.size()) ports_.resize(node + 1);
  Port& p = ports_[node];
  assert(!p.in_use && "node attached twice");
  p.handler = std::move(handler);
  p.rx_capacity = rx_buffer_bytes;
  p.rx_used = 0;
  p.in_use = true;
  on_attach(node);
}

bool Network::attached(NodeId node) const {
  return node < ports_.size() && ports_[node].in_use;
}

Network::Port* Network::port(NodeId node) {
  if (node >= ports_.size() || !ports_[node].in_use) return nullptr;
  return &ports_[node];
}

const Network::Port* Network::port(NodeId node) const {
  if (node >= ports_.size() || !ports_[node].in_use) return nullptr;
  return &ports_[node];
}

void Network::set_link_up(NodeId node, bool up) {
  Port* p = port(node);
  assert(p != nullptr && "set_link_up on unattached node");
  p->link_up = up;
}

bool Network::link_up(NodeId node) const {
  const Port* p = port(node);
  return p == nullptr || p->link_up;
}

void Network::release_rx(NodeId node, std::uint32_t bytes) {
  Port* p = port(node);
  if (p == nullptr || p->rx_capacity == 0) return;
  assert(p->rx_used >= bytes);
  p->rx_used -= bytes;
}

void Network::deliver_now(Packet&& pkt) {
  Port* p = port(pkt.dst);
  assert(p != nullptr && "send to unattached node");
  // "Now" is the destination's clock: in partitioned runs this event
  // executes on the destination lane, whose engine carries the local time.
  const sim::SimTime at = engine_for(pkt.dst).now();
  if (!p->link_up || !link_up(pkt.src)) {
    // An endpoint's cable is pulled: the packet vanishes on the wire.
    {
      sim::SpinGuard g(stats_lock_);
      ++stats_.link_drops;
    }
    obs::tracer().instant_at(pkt.dst, obs_track_, "link_drop", at);
    return;
  }
  if (p->rx_capacity != 0 &&
      p->rx_used + pkt.size_bytes > p->rx_capacity) {
    {
      sim::SpinGuard g(stats_lock_);
      ++stats_.packets_dropped;
    }
    obs::tracer().instant_at(pkt.dst, obs_track_, "rx_drop", at);
    return;
  }
  if (p->rx_capacity != 0) p->rx_used += pkt.size_bytes;
  {
    sim::SpinGuard g(stats_lock_);
    ++stats_.packets_delivered;
    stats_.wire_time_us.add(sim::to_us(at - pkt.sent_at));
  }
  obs::tracer().complete(pkt.dst, obs_track_, "pkt", pkt.sent_at, at);
  p->handler(std::move(pkt));
}

}  // namespace now::net
