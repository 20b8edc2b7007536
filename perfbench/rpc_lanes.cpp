// rpc_lanes: a closed loop on the partitioned engine.  Each of 256 Myrinet
// nodes RPC-echoes 512 B to node (i + 128) mod 256 with 30-90 us of
// jittered think time between calls, run kNodeLocal on two lanes.  Nearly
// every message crosses lanes — the epoch barrier's worst case, and the
// only workload that runs sim::ParallelEngine.
#include <algorithm>

#include "engine_layers.hpp"
#include "sim/random.hpp"

namespace perfbench {
namespace {

using namespace now;

constexpr std::uint32_t kNodes = 256;
constexpr proto::MethodId kEcho = 77;
constexpr std::uint32_t kBytes = 512;
constexpr sim::SimTime kHorizon = 20 * sim::kMillisecond;
constexpr sim::Duration kDrain = 5 * sim::kMillisecond;
constexpr sim::Duration kSlice = 1 * sim::kMillisecond;

/// One node's echo loop.  Each node's calls issue and complete on its own
/// lane, so its slot is touched by one thread only.
struct NodeLoop {
  sim::Pcg32 rng{1};
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::vector<sim::Duration> latency;
};

class EchoClients {
 public:
  EchoClients(Cluster& c, std::uint64_t seed, sim::SimTime horizon)
      : c_(c), horizon_(horizon), nodes_(kNodes) {
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      nodes_[i].rng = sim::Pcg32(seed * 7919 + i + 1);
      c_.rpc().register_method(
          i, kEcho,
          [](net::NodeId, std::any req, proto::RpcLayer::ReplyFn reply) {
            reply(kBytes, std::move(req));
          });
    }
  }

  /// Desynchronised first calls, jittered from each node's own stream.
  /// Returns a digest of the first draws (what --seed feeds in).
  std::uint64_t arm() {
    Digest d;
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      const auto at = static_cast<sim::Duration>(
          nodes_[i].rng.next_below(50 * sim::kMicrosecond));
      d.add(static_cast<std::uint64_t>(at));
      c_.network().engine_for(i).schedule_at(at, [this, i] { issue(i); });
    }
    return d.value();
  }

  const std::vector<NodeLoop>& nodes() const { return nodes_; }

 private:
  void issue(std::uint32_t i) {
    sim::Engine& e = c_.network().engine_for(i);
    if (e.now() >= horizon_) return;
    const sim::SimTime t0 = e.now();
    ++nodes_[i].issued;
    c_.rpc().call(i, (i + kNodes / 2) % kNodes, kEcho, kBytes, std::any{},
                  [this, i, t0](std::any) { done(i, t0); });
  }

  void done(std::uint32_t i, sim::SimTime t0) {
    sim::Engine& e = c_.network().engine_for(i);
    NodeLoop& n = nodes_[i];
    ++n.completed;
    n.latency.push_back(e.now() - t0);
    const sim::Duration think =
        30 * sim::kMicrosecond +
        static_cast<sim::Duration>(n.rng.next_below(60 * sim::kMicrosecond));
    e.schedule_in(think, [this, i] { issue(i); });
  }

  Cluster& c_;
  sim::SimTime horizon_;
  std::vector<NodeLoop> nodes_;
};

/// Value at quantile q of `sorted` (ascending), at the rank
/// sim::Histogram::percentile picks.
double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank =
      static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

}  // namespace

RepResult run_rpc_lanes(const Options& opt, Spans& spans) {
  RepResult r;
  const sim::SimTime horizon =
      opt.sim_ms > 0 ? opt.sim_ms * sim::kMillisecond : kHorizon;
  SpanScope rep(spans, "rep");
  const auto t0 = Clock::now();
  const int setup = spans.begin("setup");

  ClusterConfig cfg;
  cfg.workstations = kNodes;
  cfg.fabric = Fabric::kMyrinet;  // 1 us one-way latency = the lookahead
  cfg.with_glunix = false;
  cfg.threads = opt.lanes;
  cfg.partitioning = Partitioning::kNodeLocal;
  cfg.seed = opt.seed;
  const auto tb = Clock::now();
  const int build = spans.begin("core.build");
  Cluster c(cfg);
  spans.end(build);
  r.setup_steps["core.build_s"] = seconds_since(tb);

  const int backend = spans.begin("backend.build");
  EchoClients echo(c, opt.seed, horizon);
  r.inputs_digest = echo.arm();
  spans.end(backend);
  spans.end(setup);
  r.setup_s = seconds_since(t0);

  const auto tr = Clock::now();
  {
    SpanScope run(spans, "run");
    drive(c, horizon + kDrain, kSlice, spans,
          [&c](std::vector<std::pair<const char*, double>>& v) {
            if (const sim::ParallelEngine* pe = c.parallel_engine()) {
              v.emplace_back("sim.epochs", static_cast<double>(pe->epochs()));
              v.emplace_back("sim.cross_lane_msgs",
                             static_cast<double>(pe->messages_posted()));
            }
          });
  }
  r.run_s = seconds_since(tr);

  SpanScope check(spans, "check");
  Digest d;
  std::uint64_t issued = 0, completed = 0;
  std::vector<double> lat_ms;
  for (const NodeLoop& n : echo.nodes()) {
    issued += n.issued;
    completed += n.completed;
    std::uint64_t sum = 0;
    for (const sim::Duration l : n.latency) {
      sum += static_cast<std::uint64_t>(l);
      lat_ms.push_back(sim::to_ms(l));
    }
    d.add(n.completed);
    d.add(sum);
  }
  const std::uint64_t in_flight = issued - std::min(issued, completed);
  r.ops = issued;
  r.failed = in_flight;
  r.check(c.rpc().calls_sent() == completed + in_flight,
          "echoes completed + in flight != calls sent");
  r.check(c.rpc().replies_received() == completed,
          "replies received != echoes completed");
  r.check(in_flight == 0, "echoes still in flight after the drain");

  std::sort(lat_ms.begin(), lat_ms.end());
  double sum_ms = 0.0;
  for (const double l : lat_ms) sum_ms += l;
  r.sim["sim_p50_ms"] = {quantile_sorted(lat_ms, 0.50), "ms"};
  r.sim["sim_p999_ms"] = {quantile_sorted(lat_ms, 0.999), "ms"};
  r.sim["sim_mean_ms"] = {
      lat_ms.empty() ? 0.0 : sum_ms / static_cast<double>(lat_ms.size()),
      "ms"};
  r.sim["sim_samples"] = {static_cast<double>(lat_ms.size()), "count"};
  add_engine_counts(c, r, &d);
  r.digest = d.value();
  return r;
}

}  // namespace perfbench
