#include "net/shared_bus.hpp"

#include <algorithm>
#include <cassert>

namespace now::net {

void SharedBusNetwork::send(Packet pkt) {
  assert(attached(pkt.src) && attached(pkt.dst));
  ++stats_.packets_sent;
  stats_.bytes_sent += pkt.size_bytes;
  pkt.sent_at = engine_.now();

  const sim::Duration ser = params_.serialization(pkt.size_bytes);

  // Wait for the medium, plus a small random backoff if it was busy
  // (a stand-in for CSMA/CD collision resolution under contention).
  sim::SimTime start = engine_.now();
  if (medium_busy_until_ > start) {
    start = medium_busy_until_ +
            static_cast<sim::Duration>(rng_.uniform(0.0, 51.2)) *
                sim::kMicrosecond / 10;  // up to ~5 slot times
  }
  const sim::SimTime done = start + ser;
  medium_busy_total_ += ser;
  medium_busy_until_ = done;

  auto deliver = [this, p = std::move(pkt)]() mutable {
    deliver_now(std::move(p));
  };
  static_assert(sim::InlinedCallback::fits_inline<decltype(deliver)>(),
                "a packet-carrying closure must not allocate");
  engine_.schedule_at(done + params_.latency, std::move(deliver));
}

double SharedBusNetwork::utilization() const {
  if (engine_.now() == 0) return 0.0;
  return static_cast<double>(medium_busy_total_) /
         static_cast<double>(engine_.now());
}

}  // namespace now::net
