#include "engine_layers.hpp"

#include <algorithm>

#include "net/hierarchical.hpp"

namespace perfbench {

using namespace now;

std::vector<sim::Engine*> engines_of(Cluster& c) {
  std::vector<sim::Engine*> out{&c.engine()};
  for (std::uint32_t n = 0; n < c.size(); ++n) {
    sim::Engine* e = &c.network().engine_for(n);
    if (std::find(out.begin(), out.end(), e) == out.end()) out.push_back(e);
  }
  return out;
}

std::uint64_t events_dispatched(const std::vector<sim::Engine*>& engines) {
  std::uint64_t n = 0;
  for (const sim::Engine* e : engines) n += e->dispatched();
  return n;
}

void add_engine_counts(Cluster& c, RepResult& r, Digest* digest) {
  const auto count = [&r](const char* name, double v, const char* unit) {
    r.counts[name] = {v, unit};
  };
  count("sim.events", static_cast<double>(events_dispatched(engines_of(c))),
        "count");
  const sim::ParallelEngine* pe = c.parallel_engine();
  count("sim.epochs", pe ? static_cast<double>(pe->epochs()) : 0.0, "count");
  count("sim.cross_lane_msgs",
        pe ? static_cast<double>(pe->messages_posted()) : 0.0, "count");

  const net::NetworkStats& ns = c.network().stats();
  const auto* hier = dynamic_cast<net::HierarchicalNetwork*>(&c.network());
  const std::uint64_t cross_rack =
      hier ? hier->hier_stats().cross_rack_packets : 0;
  count("net.packets", static_cast<double>(ns.packets_sent), "count");
  count("net.bytes", static_cast<double>(ns.bytes_sent), "B");
  count("net.drops", static_cast<double>(ns.packets_dropped + ns.link_drops),
        "count");
  count("net.wire_us", ns.wire_time_us.mean(), "us");
  count("net.cross_rack_packets", static_cast<double>(cross_rack), "count");

  const proto::AmStats& am = c.am().stats();
  count("am.sent", static_cast<double>(am.sent), "count");
  count("am.retransmits", static_cast<double>(am.retransmits), "count");
  count("am.stalled_sends", static_cast<double>(am.stalled_sends), "count");
  count("am.msg_us", am.msg_latency_us.mean(), "us");
  count("rpc.calls", static_cast<double>(c.rpc().calls_sent()), "count");
  count("rpc.timeouts", static_cast<double>(c.rpc().timeouts()), "count");

  if (digest != nullptr) {
    digest->add(ns.packets_sent);
    digest->add(ns.bytes_sent);
    digest->add(ns.packets_dropped + ns.link_drops);
    digest->add(cross_rack);
    digest->add(am.sent);
    digest->add(am.retransmits);
    digest->add(c.rpc().calls_sent());
    digest->add(c.rpc().timeouts());
  }
}

}  // namespace perfbench
