// Intra-run parallel execution: one big cluster on N worker threads.
//
// PR 3's now::exp parallelizes *across* independent sweep points; this
// bench exercises the other axis — partitioning a single >=256-node
// simulation across lanes with conservative lookahead (DESIGN.md §12).
// Every node runs an RPC echo loop against a partner half the cluster
// away, so nearly every message crosses a partition boundary at any
// thread count: the worst case for the epoch-barrier machinery and the
// honest one to time.
//
// stdout is 100% simulated results (integer op counts, latency sums in
// ticks, an order-sensitive digest) and is byte-identical for every
// --threads value — the CI intra-run-determinism job diffs --threads 1
// against --threads 4 verbatim.  Wall-clock, lane counts, epoch counters
// and the engine's per-lane busy/wait profile are nondeterministic
// measurement and go only to --json.
//
//   --nodes N     cluster size (default 256)
//   --threads N   partition lanes (default 1 = the serial engine)
//   --sim-ms M    simulated horizon in milliseconds (default 200)
//   --json PATH   machine-readable report (BENCH_parallel.json shape)
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/cluster.hpp"
#include "sim/random.hpp"

namespace {

using namespace now;

constexpr proto::MethodId kEcho = 77;
constexpr std::uint32_t kReqBytes = 512;
constexpr std::uint32_t kRespBytes = 512;

struct NodeState {
  sim::Pcg32 rng{1};
  std::uint64_t ops = 0;
  std::uint64_t latency_ticks = 0;  // integer sim ticks: exact, order-free
};

std::uint32_t parse_u32(int argc, char** argv, const char* flag,
                        std::uint32_t def) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      const unsigned long v = std::strtoul(argv[i + 1], nullptr, 10);
      if (v > 0) return static_cast<std::uint32_t>(v);
    }
  }
  return def;
}

// FNV-1a over the per-node (ops, latency) sequence: any reordering or
// off-by-one anywhere in the cluster flips the digest.
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

}  // namespace

int main(int argc, char** argv) {
  now::bench::heading(
      "parallel intra-run engine - one cluster partitioned across threads",
      "'A Case for NOW': the simulator of the building-sized computer "
      "should itself scale with cores");
  const std::uint32_t nodes = parse_u32(argc, argv, "--nodes", 256);
  const unsigned threads = now::bench::parse_threads(argc, argv);
  const sim::SimTime horizon =
      static_cast<sim::SimTime>(parse_u32(argc, argv, "--sim-ms", 200)) *
      sim::kMillisecond;
  now::bench::JsonReport json(argc, argv, "bench/bench_parallel_cluster",
                              "wall_ms");
  json.method(
      "every node RPC-echoes 512 B to the node half the cluster away "
      "(almost always a different partition) with 30-90 us jittered think "
      "time; ClusterConfig{kNodeLocal, threads} vs the serial engine");

  ClusterConfig cfg;
  cfg.workstations = nodes;
  cfg.fabric = Fabric::kMyrinet;  // 1 us one-way latency = the lookahead
  cfg.with_glunix = false;        // partition-clean: nodes interact only
  cfg.threads = threads;          // through the switched fabric
  cfg.partitioning = Partitioning::kNodeLocal;
  Cluster c(cfg);

  auto state = std::make_shared<std::vector<NodeState>>(nodes);
  for (std::uint32_t i = 0; i < nodes; ++i) {
    (*state)[i].rng = sim::Pcg32(cfg.seed * 7919 + i + 1);
    c.rpc().register_method(
        i, kEcho, [](net::NodeId, std::any req, proto::RpcLayer::ReplyFn r) {
          r(kRespBytes, std::move(req));
        });
  }

  // Each node's loop touches only its own NodeState slot and is confined
  // to its own lane (calls issue there, replies return there), so the
  // shared vector is race-free under partitioning.
  auto issue = std::make_shared<std::function<void(std::uint32_t)>>();
  *issue = [&c, state, issue, nodes, horizon](std::uint32_t i) {
    sim::Engine& e = c.network().engine_for(i);
    if (e.now() >= horizon) return;
    const std::uint32_t partner = (i + nodes / 2) % nodes;
    const sim::SimTime t0 = e.now();
    c.rpc().call(i, partner, kEcho, kReqBytes, std::any{},
                 [&c, state, issue, i, t0](std::any) {
                   NodeState& s2 = (*state)[i];
                   ++s2.ops;
                   s2.latency_ticks += static_cast<std::uint64_t>(
                       c.network().engine_for(i).now() - t0);
                   const sim::Duration think =
                       30 * sim::kMicrosecond +
                       static_cast<sim::Duration>(s2.rng.next_below(
                           static_cast<std::uint32_t>(60 *
                                                      sim::kMicrosecond)));
                   c.network().engine_for(i).schedule_in(
                       think, [issue, i] {
                         if (*issue) (*issue)(i);
                       });
                 });
  };
  // Desynchronised start so the fabric sees a stream, not a thundering
  // herd; the jitter comes from each node's own RNG (thread-invariant).
  for (std::uint32_t i = 0; i < nodes; ++i) {
    const sim::Duration at =
        static_cast<sim::Duration>((*state)[i].rng.next_below(
            static_cast<std::uint32_t>(50 * sim::kMicrosecond)));
    c.network().engine_for(i).schedule_at(at, [issue, i] {
      if (*issue) (*issue)(i);
    });
  }

  const auto w0 = std::chrono::steady_clock::now();
  c.run_until(horizon + 5 * sim::kMillisecond);  // drain in-flight echoes
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - w0)
                             .count();
  *issue = nullptr;

  std::uint64_t ops = 0, lat = 0;
  std::uint64_t min_ops = ~0ull, max_ops = 0;
  for (const NodeState& s : *state) {
    ops += s.ops;
    lat += s.latency_ticks;
    if (s.ops < min_ops) min_ops = s.ops;
    if (s.ops > max_ops) max_ops = s.ops;
  }
  const std::uint64_t d = digest(*state);

  // Simulated results only below this line: byte-identical at any
  // --threads (the CI job depends on it).
  now::bench::row("nodes: %u    simulated: %u ms    rpc: 512 B echo, "
                  "partner = (i + %u) %% %u",
                  nodes, parse_u32(argc, argv, "--sim-ms", 200), nodes / 2,
                  nodes);
  now::bench::row("echo ops completed:   %llu (per node min %llu, max %llu)",
                  static_cast<unsigned long long>(ops),
                  static_cast<unsigned long long>(min_ops),
                  static_cast<unsigned long long>(max_ops));
  now::bench::row("latency sum:          %llu ticks (mean %.3f us)",
                  static_cast<unsigned long long>(lat),
                  ops ? sim::to_us(static_cast<sim::Duration>(lat / ops))
                      : 0.0);
  now::bench::row("result digest:        %016llx",
                  static_cast<unsigned long long>(d));
  now::bench::row("");
  now::bench::row("this table is pure simulation output - identical for "
                  "every --threads value.");
  now::bench::row("wall-clock, lanes, and epoch counters go to --json "
                  "(nondeterministic).");

  json.value("run", "nodes", nodes);
  json.value("run", "threads_requested", threads);
  json.value("run", "threads_effective", c.effective_threads());
  json.value("run", "hardware_concurrency",
             std::thread::hardware_concurrency());
  json.value("run", "wall_ms", wall_ms);
  json.value("run", "ops", static_cast<double>(ops));
  json.value("run", "digest_lo32", static_cast<double>(d & 0xffffffffull));
  if (const sim::ParallelEngine* pe = c.parallel_engine()) {
    json.value("run", "epochs", static_cast<double>(pe->epochs()));
    json.value("run", "cross_lane_messages",
               static_cast<double>(pe->messages_posted()));
    // Per lane, busy + wait + serial_ns is the wall time of the run.
    const sim::ParallelProfile p = pe->profile();
    json.value("profile", "epoch_ns", static_cast<double>(p.epoch_ns));
    json.value("profile", "serial_ns", static_cast<double>(p.serial_ns));
    for (unsigned lane = 0; lane < p.lane_busy_ns.size(); ++lane) {
      const std::string l = "lane" + std::to_string(lane);
      json.value("profile", l + "_busy_ns",
                 static_cast<double>(p.lane_busy_ns[lane]));
      json.value("profile", l + "_wait_ns",
                 static_cast<double>(p.lane_wait_ns(lane)));
      json.value("profile", l + "_parks",
                 static_cast<double>(p.lane_parks[lane]));
    }
    for (unsigned k = 0; k < p.width_log2.size(); ++k) {
      if (p.width_log2[k] == 0) continue;
      json.value("epoch_width", "ge_" + std::to_string(1ull << k) + "ns",
                 static_cast<double>(p.width_log2[k]));
    }
  }
  json.note("stdout (ops, latency sum, digest) is byte-identical across "
            "--threads; wall_ms is measurement");
  return 0;
}
