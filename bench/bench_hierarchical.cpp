// Building-scale fabric: RPC traffic over the hierarchical fat tree, swept
// across node count x traffic locality x spine oversubscription.
//
// The paper's NOW is a *building*, not a lab: thousands of machines behind
// edge switches and an oversubscribed spine.  This bench puts numbers on
// the defining trade of that topology — rack-local traffic never touches a
// trunk and is immune to the oversubscription knob, while cross-rack
// traffic queues on the spine trunks and slows as they thin out.
//
// Every sweep point is an independent serial simulation (--jobs N
// parallelizes them).  stdout is pure simulated results — integer op
// counts, latency sums, FNV digests — and is byte-identical across every
// --jobs value; wall-clock, rss, and events/sec go to --json only.
//
//   --nodes N     cap the size axis (default sweep: 256 and 1024)
//   --sim-ms M    simulated horizon per point (default 20)
//   --jobs N      sweep points in parallel (stdout invariant)
//   --json PATH   machine-readable report (BENCH_hierarchical.json)
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/cluster.hpp"
#include "net/hierarchical.hpp"
#include "sim/random.hpp"

namespace {

using namespace now;

constexpr proto::MethodId kEcho = 91;
constexpr std::uint32_t kReqBytes = 4096;  // one page: 51 us on a trunk
constexpr std::uint32_t kRespBytes = 64;
constexpr std::uint32_t kNodesPerRack = 32;

struct NodeState {
  sim::Pcg32 rng{1};
  std::uint64_t ops = 0;
  std::uint64_t latency_ticks = 0;
};

struct PointResult {
  std::uint64_t ops = 0;
  std::uint64_t latency_ticks = 0;
  std::uint64_t digest = 0;
  std::uint64_t rack_local_packets = 0;
  std::uint64_t cross_rack_packets = 0;
  double wall_ms = 0;  // measurement: --json only
};

std::uint32_t parse_u32(int argc, char** argv, const char* flag,
                        std::uint32_t def) {
  const std::uint32_t v =
      now::bench::numeric_flag<std::uint32_t>(argc, argv, flag, 0);
  return v > 0 ? v : def;
}

std::uint64_t digest(const std::vector<NodeState>& st) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const NodeState& s : st) {
    mix(s.ops);
    mix(s.latency_ticks);
  }
  return h;
}

// One sweep point: a kBuildingNow cluster where every node runs a closed
// RPC loop against a fixed partner — the next node in its own rack
// (rack-local) or the node half the building away (cross-rack, which with
// size a multiple of the rack size pairs rack r with rack r + R/2).  Each
// destination receives from exactly one source, so host downlinks never
// contend and the cross-rack latency delta is pure trunk queueing.
//
// `seed` depends on (size, traffic) but NOT on the oversubscription, so
// the points along the oversub axis run the identical workload: the
// rack-local rows print the same ops/latency/digest at 1:1 and 8:1 —
// trunks literally do not appear on their path — while cross-rack rows
// diverge only through the fabric.
PointResult run_point(std::uint64_t seed, std::uint32_t nodes,
                      double oversub, bool cross_rack,
                      sim::SimTime horizon) {
  const auto w0 = std::chrono::steady_clock::now();
  ClusterConfig cfg;
  cfg.workstations = nodes;
  cfg.fabric = Fabric::kBuildingNow;
  cfg.building = net::building_now((nodes + kNodesPerRack - 1) / kNodesPerRack,
                                   kNodesPerRack, oversub);
  cfg.with_glunix = false;
  cfg.seed = seed;
  // No cfg.run: the seed must not vary per sweep point.  run_sweep still
  // installs each point's private metrics/tracer context on the worker
  // thread, and the cluster picks those up ambiently, so points stay
  // isolated under --jobs.
  Cluster c(cfg);

  auto state = std::make_shared<std::vector<NodeState>>(nodes);
  for (std::uint32_t i = 0; i < nodes; ++i) {
    (*state)[i].rng = sim::Pcg32(seed * 7919 + i + 1);
    c.rpc().register_method(
        i, kEcho, [](net::NodeId, std::any req, proto::RpcLayer::ReplyFn r) {
          r(kRespBytes, std::move(req));
        });
  }

  const auto partner = [nodes, cross_rack](std::uint32_t i) -> std::uint32_t {
    if (cross_rack) return (i + nodes / 2) % nodes;
    const std::uint32_t base = (i / kNodesPerRack) * kNodesPerRack;
    const std::uint32_t width = std::min(kNodesPerRack, nodes - base);
    return base + (i - base + 1) % width;
  };

  auto issue = std::make_shared<std::function<void(std::uint32_t)>>();
  *issue = [&c, state, issue, partner, horizon](std::uint32_t i) {
    if (c.engine().now() >= horizon) return;
    const sim::SimTime t0 = c.engine().now();
    c.rpc().call(i, partner(i), kEcho, kReqBytes, std::any{},
                 [&c, state, issue, i, t0](std::any) {
                   NodeState& s = (*state)[i];
                   ++s.ops;
                   s.latency_ticks += static_cast<std::uint64_t>(
                       c.engine().now() - t0);
                   const sim::Duration think =
                       100 * sim::kMicrosecond +
                       static_cast<sim::Duration>(s.rng.next_below(
                           static_cast<std::uint32_t>(200 *
                                                      sim::kMicrosecond)));
                   c.engine().schedule_in(think, [issue, i] {
                     if (*issue) (*issue)(i);
                   });
                 });
  };
  for (std::uint32_t i = 0; i < nodes; ++i) {
    const sim::Duration at =
        static_cast<sim::Duration>((*state)[i].rng.next_below(
            static_cast<std::uint32_t>(100 * sim::kMicrosecond)));
    c.engine().schedule_at(at, [issue, i] {
      if (*issue) (*issue)(i);
    });
  }

  c.run_until(horizon + 5 * sim::kMillisecond);  // drain in-flight echoes
  *issue = nullptr;

  PointResult r;
  for (const NodeState& s : *state) {
    r.ops += s.ops;
    r.latency_ticks += s.latency_ticks;
  }
  r.digest = digest(*state);
  const auto& hs =
      static_cast<net::HierarchicalNetwork&>(c.network()).hier_stats();
  r.rack_local_packets = hs.rack_local_packets;
  r.cross_rack_packets = hs.cross_rack_packets;
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - w0)
                  .count();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  now::bench::heading(
      "building-scale fabric - locality x oversubscription on the fat tree",
      "'A Case for NOW': building-wide NOWs ride hierarchical switched "
      "fabrics; rack locality is free, the spine is what you pay for");
  const std::uint32_t cap = now::bench::parse_nodes(argc, argv);
  const std::vector<std::uint32_t> sizes =
      now::bench::cap_axis({256, 1024}, cap);
  const std::vector<double> oversubs{1.0, 4.0, 8.0};
  const sim::SimTime horizon =
      static_cast<sim::SimTime>(parse_u32(argc, argv, "--sim-ms", 20)) *
      sim::kMillisecond;

  now::bench::JsonReport json(argc, argv, "bench/bench_hierarchical",
                              "mean_latency_us");
  json.method(
      "closed-loop 4 KB RPC echo per node, partner either the next node in "
      "the same rack or the node half the building away; 32-node racks on "
      "Myrinet-class links; spine thinned to oversubscription ratio; "
      "D-mod-k routing");
  now::bench::Sweep sweep(argc, argv, "bench/bench_hierarchical");

  struct Point {
    std::uint32_t nodes;
    double oversub;
    bool cross;
    std::string name;
  };
  std::vector<Point> points;
  std::vector<std::string> names;
  for (const std::uint32_t n : sizes) {
    for (const double o : oversubs) {
      for (const bool cross : {false, true}) {
        Point p;
        p.nodes = n;
        p.oversub = o;
        p.cross = cross;
        p.name = "n";
        p.name += std::to_string(n);
        p.name += "_o";
        p.name += std::to_string(static_cast<int>(o));
        p.name += cross ? "_cross" : "_local";
        names.push_back(p.name);
        points.push_back(std::move(p));
      }
    }
  }

  const auto results = sweep.run(names, [&](now::exp::RunContext& ctx) {
    const Point& p = points[ctx.task_index];
    const std::uint64_t seed =
        sweep.base_seed() * 1000003ull + p.nodes * 31ull + (p.cross ? 1 : 0);
    return run_point(seed, p.nodes, p.oversub, p.cross, horizon);
  });

  now::bench::row("%u nodes/rack; spine trunks per rack = 32/oversub; "
                  "simulated %u ms/point",
                  kNodesPerRack, parse_u32(argc, argv, "--sim-ms", 20));
  now::bench::row("");
  now::bench::row("%-7s %-6s %-9s %-11s %10s %10s %18s", "nodes", "racks",
                  "oversub", "traffic", "ops", "mean us", "digest");
  double mean_us[2][2] = {{0, 0}, {0, 0}};  // [cross][edge-vs-thin spine]
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const PointResult& r = results[i];
    const double us =
        r.ops ? sim::to_us(static_cast<sim::Duration>(r.latency_ticks /
                                                      r.ops))
              : 0.0;
    now::bench::row("%-7u %-6u %-9s %-11s %10llu %10.3f   %016llx",
                    p.nodes, (p.nodes + kNodesPerRack - 1) / kNodesPerRack,
                    (std::to_string(static_cast<int>(p.oversub)) + ":1")
                        .c_str(),
                    p.cross ? "cross-rack" : "rack-local",
                    static_cast<unsigned long long>(r.ops), us,
                    static_cast<unsigned long long>(r.digest));
    json.value(p.name, "ops", static_cast<double>(r.ops));
    json.value(p.name, "mean_latency_us", us);
    json.value(p.name, "digest_lo32",
               static_cast<double>(r.digest & 0xffffffffull));
    json.value(p.name, "rack_local_packets",
               static_cast<double>(r.rack_local_packets));
    json.value(p.name, "cross_rack_packets",
               static_cast<double>(r.cross_rack_packets));
    json.value(p.name, "wall_ms", r.wall_ms);
    if (p.nodes == sizes.back()) {
      if (p.oversub == oversubs.front()) mean_us[p.cross][0] = us;
      if (p.oversub == oversubs.back()) mean_us[p.cross][1] = us;
    }
  }

  now::bench::row("");
  now::bench::row("at %u nodes: rack-local latency %.3f -> %.3f us across "
                  "the oversubscription axis (the spine is invisible from "
                  "inside a rack);",
                  sizes.back(), mean_us[0][0], mean_us[0][1]);
  now::bench::row("cross-rack latency %.3f -> %.3f us as the spine thins "
                  "from %d:1 to %d:1 - trunk queueing, the price of a "
                  "cheap building-wide fabric.",
                  mean_us[1][0], mean_us[1][1],
                  static_cast<int>(oversubs.front()),
                  static_cast<int>(oversubs.back()));

  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  json.value("aggregate", "max_rss_mb", rss_mb);
  char prof[256];
  std::snprintf(prof, sizeof prof,
                "profile: at %u nodes cross-rack mean latency went %.1f -> "
                "%.1f us from 1:1 to 8:1 oversubscription while rack-local "
                "stayed at %.1f us; peak rss %.0f MB - memory scales with "
                "nodes (flat SoA busy/gauge arrays), time with packets",
                sizes.back(), mean_us[1][0], mean_us[1][1], mean_us[0][1],
                rss_mb);
  json.note(prof);
  json.note("saturation: the hot path is per-hop busy-horizon arithmetic "
            "on flat arrays; the sweep saturates the spine trunks "
            "(simulated) long before the simulator itself - events/sec is "
            "bounded by the slab engine, not by fabric bookkeeping");
  json.note("stdout is byte-identical across --jobs; wall_ms and rss are "
            "measurement");
  return 0;
}
