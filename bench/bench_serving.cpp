// Serving traffic with tail-latency SLOs: xFS vs the central server.
//
// The paper's pitch is a building-wide machine you can point real users
// at.  This bench treats the file service as that product: an open
// Poisson arrival stream (requests keep coming whether or not earlier
// ones finished — nobody's browser waits for a stranger's RPC) of 75 %
// reads / 25 % writes is offered to sixteen client workstations at a
// swept rate, against both file system designs, with and without a
// scripted crash of node 0 — the central design's one server, just
// another manager/RAID member to xFS.  now::serve records every
// end-to-end latency and judges it against per-class SLOs (reads 25 ms,
// writes 100 ms); the cells report p50/p99/p999, SLO attainment, and
// goodput (SLO-meeting successes per second).
//
// Expected shape: at low load both designs serve from cache and meet SLO.
// As offered load grows, the central design's write-through disk
// saturates first — queues build, replies outrun the 500 ms RPC timeout,
// and attainment collapses; xFS spreads the same bytes over every disk
// via log striping and degrades much later.  Under the fault plan the
// divergence widens: the central design loses every op issued during the
// outage *and* comes back with a cold server cache (satellite of this
// PR: DRAM does not survive a power cycle), while xFS re-points manager
// duty in ~500 ms and serves degraded reads from the surviving stripes.
//
// Part two scales the population to the building (docs/
// capacity-planning.md walks the numbers): thousands of streaming open
// clients on Fabric::kBuildingNow, central backend only, comparing
// rack-local placement (clients beside the server) against spread
// placement (clients dealt across every other rack, all traffic over the
// 4:1 oversubscribed spine).
//
// Determinism: every cell is one serial simulation and one exp::run_sweep
// point (--jobs N) whose arrivals/mix draws derive from the point seed.
// stdout is byte-identical for any --jobs value (DESIGN.md §13, §15).
#include <sys/resource.h>

#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/cluster.hpp"
#include "exp/grid.hpp"
#include "net/placement.hpp"
#include "replay/cursor.hpp"
#include "serve/workload.hpp"
#include "xfs/central_server.hpp"

namespace {

using namespace now;

constexpr std::uint32_t kClients = 16;
constexpr sim::SimTime kHorizon = 30 * sim::kSecond;
constexpr sim::Duration kDrain = 5 * sim::kSecond;
constexpr sim::SimTime kCrashAt = 15 * sim::kSecond;
constexpr sim::Duration kOutage = 5 * sim::kSecond;
constexpr std::uint32_t kWorkingSet = 2'000;
constexpr sim::Duration kReadSlo = 25 * sim::kMillisecond;
constexpr sim::Duration kWriteSlo = 100 * sim::kMillisecond;

const std::vector<double> kLoads{25.0, 100.0, 400.0, 1600.0};
const std::vector<std::string> kLoadLabels{"25/s", "100/s", "400/s",
                                           "1600/s"};
const std::vector<std::string> kFaultLabels{"none", "crash@15s"};
const std::vector<std::string> kBackendLabels{"central", "xfs"};

serve::ServeConfig serve_config(double offered, std::uint64_t seed) {
  serve::ServeConfig sc;
  sc.population.clients = kClients;
  sc.population.open_fraction = 1.0;  // pure open arrivals
  sc.population.offered_per_sec = offered;
  sc.population.horizon = kHorizon;
  serve::RequestClass rd;
  rd.name = "read";
  rd.op = serve::RequestOp::kFileRead;
  rd.weight = 0.75;
  rd.slo = kReadSlo;
  rd.working_set = kWorkingSet;
  serve::RequestClass wr;
  wr.name = "write";
  wr.op = serve::RequestOp::kFileWrite;
  wr.weight = 0.25;
  wr.slo = kWriteSlo;
  wr.working_set = kWorkingSet;
  sc.classes = {rd, wr};
  for (std::uint32_t i = 1; i <= kClients; ++i) sc.client_nodes.push_back(i);
  sc.seed = seed;
  return sc;
}

struct CellResult {
  serve::ServeTotals totals;
  serve::SloClassReport read;
  serve::SloClassReport write;
  serve::SloClassReport all;
  std::uint64_t in_flight = 0;
  std::uint64_t cold_restarts = 0;
};

ClusterConfig base_config(bool with_fault, exp::RunContext& ctx) {
  ClusterConfig cfg;
  cfg.workstations = kClients + 1;  // node 0: server / manager+RAID member
  cfg.with_glunix = false;
  if (with_fault) {
    fault::FaultPlan plan;
    plan.crash_at(kCrashAt, 0).restart_at(kCrashAt + kOutage, 0);
    cfg.fault_plan = plan;
  }
  cfg.seed = ctx.seed;
  cfg.run = &ctx;
  return cfg;
}

CellResult harvest(const serve::ServeWorkload& w) {
  CellResult r;
  r.totals = w.totals();
  r.read = w.slo().report(0, kHorizon);
  r.write = w.slo().report(1, kHorizon);
  r.all = w.slo().overall(kHorizon);
  r.in_flight = w.in_flight();
  return r;
}

CellResult run_central(double offered, bool with_fault,
                       exp::RunContext& ctx) {
  ClusterConfig cfg = base_config(with_fault, ctx);
  Cluster c(cfg);
  xfs::CentralFsParams p;
  p.client_cache_blocks = 64;
  std::vector<os::Node*> clients;
  for (std::uint32_t i = 1; i <= kClients; ++i) clients.push_back(&c.node(i));
  xfs::CentralServerFs fs(c.rpc(), c.node(0), clients, p);
  fs.start();
  c.faults().attach_central(&fs);  // crash drops the server cache

  serve::Backends b;
  b.central = &fs;
  serve::ServeWorkload w(c.engine(), b, serve_config(offered, ctx.seed));
  w.start();
  c.run_until(kHorizon + kDrain);

  CellResult r = harvest(w);
  r.cold_restarts = fs.stats().cold_restarts;
  return r;
}

CellResult run_xfs(double offered, bool with_fault, exp::RunContext& ctx) {
  ClusterConfig cfg = base_config(with_fault, ctx);
  cfg.with_xfs = true;
  cfg.xfs.client_cache_blocks = 64;
  cfg.stripe_group_size = 0;  // one RAID-5 across all seventeen disks
  Cluster c(cfg);

  serve::Backends b;
  b.xfs = &c.fs();
  serve::ServeWorkload w(c.engine(), b, serve_config(offered, ctx.seed));
  w.start();
  c.run_until(kHorizon + kDrain);
  return harvest(w);
}

// ---------------------------------------------------------------------------
// Part two: building-wide serving.  One file server (node 0), thousands of
// streaming thin clients multiplexed over the building's workstations, a
// fat-tree fabric between them.  Read-heavy on purpose: once the server's
// memory cache warms, latency is fabric round-trip plus server service
// time, so the in-rack vs spread gap is the price of the spine — the
// number a capacity planner actually needs.

constexpr std::uint32_t kNodesPerRack = 32;
constexpr double kOversub = 4.0;
constexpr sim::SimTime kBldHorizon = 10 * sim::kSecond;
constexpr sim::Duration kBldDrain = 2 * sim::kSecond;
constexpr std::uint32_t kDefaultBldClients = 2048;

const std::vector<double> kBldLoads{1000.0, 3000.0, 4000.0};
const std::vector<std::string> kBldPlacements{"in-rack", "spread"};

/// `--clients N`: building-section population size (default 2048; 0 also
/// means the default).
std::uint32_t parse_clients(int argc, char** argv) {
  const std::uint32_t n =
      now::bench::numeric_flag<std::uint32_t>(argc, argv, "--clients", 0);
  return n > 0 ? n : kDefaultBldClients;
}

serve::ServeConfig building_config(std::uint32_t clients, double offered,
                                   std::vector<net::NodeId> nodes,
                                   std::uint64_t seed, bool churn) {
  serve::ServeConfig sc;
  sc.population.clients = clients;
  sc.population.open_fraction = 1.0;
  sc.population.offered_per_sec = offered;
  sc.population.horizon = kBldHorizon;
  if (churn) {
    // A compressed "day": one full diurnal period inside the horizon, so
    // the run sees both the login rush at the peak and the quiet trough.
    sc.population.diurnal.amplitude = 0.6;
    sc.population.diurnal.period = 8 * sim::kSecond;
    sc.population.sessions.mean_on = 3 * sim::kSecond;
    sc.population.sessions.mean_off = 2 * sim::kSecond;
  }
  serve::RequestClass rd;
  rd.name = "read";
  rd.op = serve::RequestOp::kFileRead;
  rd.weight = 1.0;
  rd.slo = kReadSlo;
  rd.working_set = kWorkingSet;
  sc.classes = {rd};
  sc.client_nodes = std::move(nodes);
  sc.seed = seed;
  return sc;
}

struct BldCell {
  serve::ServeTotals totals;
  serve::SloClassReport all;
  std::uint64_t in_flight = 0;
  /// Clients inside a login session at the diurnal peak (t = period/4);
  /// the whole population when churn is off.
  std::uint64_t sessions_at_peak = 0;
};

BldCell run_building(std::uint32_t nodes, std::uint32_t clients, bool spread,
                     double offered, bool churn, std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.workstations = nodes;
  cfg.fabric = Fabric::kBuildingNow;
  cfg.building =
      net::building_now(nodes / kNodesPerRack, kNodesPerRack, kOversub);
  cfg.with_glunix = false;
  cfg.seed = seed;
  Cluster c(cfg);

  // Node 0 is the building's one file server; every other workstation is
  // a potential client.  Thin clients carry no block cache (capacity 0),
  // so every read crosses the fabric and the two placements offer the
  // server the identical remote load; the server cache is prewarmed so
  // cells measure steady-state serving, not cold-disk warmup.
  xfs::CentralFsParams p;
  p.client_cache_blocks = 0;
  std::vector<os::Node*> fs_clients;
  for (std::uint32_t i = 1; i < nodes; ++i) fs_clients.push_back(&c.node(i));
  xfs::CentralServerFs fs(c.rpc(), c.node(0), fs_clients, p);
  fs.prewarm(kWorkingSet);
  fs.start();

  const auto placement =
      spread ? net::spread_clients(cfg.building.topo, 0, clients)
             : net::rack_local_clients(cfg.building.topo, 0, clients);

  serve::Backends b;
  b.central = &fs;
  serve::ServeWorkload w(c.engine(), b,
                         building_config(clients, offered, placement, seed,
                                         churn));
  w.start();
  c.run_until(kBldHorizon + kBldDrain);

  BldCell r;
  r.totals = w.totals();
  r.all = w.slo().overall(kBldHorizon);
  r.in_flight = w.in_flight();
  r.sessions_at_peak = clients;
  if (churn) {
    // Walk fresh SessionTimeline copies (pure functions of the seed) and
    // count who is logged in at the compressed day's peak.
    const sim::SimTime peak = 2 * sim::kSecond;  // period/4
    r.sessions_at_peak = 0;
    for (std::uint32_t cl = 0; cl < clients; ++cl) {
      serve::SessionTimeline tl = w.population().sessions(cl);
      while (const auto s = tl.next()) {
        if (s->login > peak) break;
        if (s->logout > peak) {
          ++r.sessions_at_peak;
          break;
        }
      }
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Part three (--trace <path>): recorded arrivals as the third source.
// The same 16-client open population runs at a gentle background rate
// while a recorded trace is replayed on top by four replay clients — each
// owning an independent stride-filtered cursor over its own file handle.
// Replayed requests are judged against the same read/write SLOs as the
// synthetic ones.

constexpr std::uint32_t kReplayClients = 4;
constexpr double kReplayBackgroundLoad = 25.0;

CellResult run_replay_cell(const std::string& path, double scale,
                           exp::RunContext& ctx) {
  ClusterConfig cfg;
  cfg.workstations = kClients + 1;
  cfg.with_glunix = false;
  cfg.seed = ctx.seed;
  cfg.run = &ctx;
  Cluster c(cfg);

  xfs::CentralFsParams p;
  p.client_cache_blocks = 64;
  std::vector<os::Node*> clients;
  for (std::uint32_t i = 1; i <= kClients; ++i) clients.push_back(&c.node(i));
  xfs::CentralServerFs fs(c.rpc(), c.node(0), clients, p);
  fs.prewarm(kWorkingSet);
  fs.start();

  serve::ServeConfig sc = serve_config(kReplayBackgroundLoad, ctx.seed);
  sc.replay.path = path;
  sc.replay.clients = kReplayClients;
  sc.replay.time_scale = scale;

  serve::Backends b;
  b.central = &fs;
  serve::ServeWorkload w(c.engine(), b, sc);
  w.start();
  c.run_until(kHorizon + kDrain);
  return harvest(w);
}

}  // namespace

int main(int argc, char** argv) {
  now::bench::heading(
      "serving traffic under tail-latency SLOs - xFS vs central server",
      "'A Case for NOW': a building-wide system users can be pointed at "
      "must hold its latency tail through load and failures");
  now::bench::Sweep sweep(argc, argv, "bench/bench_serving");
  now::bench::JsonReport json(argc, argv, "bench_serving", "ms / fraction");
  json.method(
      "16 clients, 30 s simulated, open Poisson arrivals (75% reads SLO "
      "25 ms, 25% writes SLO 100 ms, zipf working set of 2000 blocks); "
      "cells cross offered load x fault plan (node 0 crash at 15 s, "
      "repair at 20 s) x backend; attainment = requests that succeeded "
      "and met their class SLO / completed");

  now::exp::Grid grid;
  grid.add("backend", kBackendLabels.size());
  grid.add("fault", kFaultLabels.size());
  grid.add("load", kLoads.size());

  std::vector<std::string> names;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto co = grid.coords(i);
    names.push_back(kBackendLabels[co[0]] + "_" +
                    (co[1] ? "crash15s" : "nofault") + "_" +
                    std::to_string(static_cast<int>(kLoads[co[2]])) + "rps");
  }

  const auto cells = sweep.run(names, [&](now::exp::RunContext& ctx) {
    const auto co = grid.coords(ctx.task_index);
    const bool xfs = co[0] == 1;
    const bool with_fault = co[1] == 1;
    const double load = kLoads[co[2]];
    return xfs ? run_xfs(load, with_fault, ctx)
               : run_central(load, with_fault, ctx);
  });

  now::bench::row("%-8s %-10s %-7s %9s %6s %8s %8s %8s %8s %7s %9s",
                  "backend", "fault", "load", "completed", "fail",
                  "p50 ms", "p99 ms", "p999 ms", "max ms", "attain",
                  "goodput/s");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto co = grid.coords(i);
    const CellResult& r = cells[i];
    now::bench::row(
        "%-8s %-10s %-7s %9llu %6llu %8.2f %8.2f %8.2f %8.1f %6.1f%% %9.1f",
        kBackendLabels[co[0]].c_str(), kFaultLabels[co[1]].c_str(),
        kLoadLabels[co[2]].c_str(),
        static_cast<unsigned long long>(r.all.completed),
        static_cast<unsigned long long>(r.all.failed), r.all.p50_ms,
        r.all.p99_ms, r.all.p999_ms, r.all.max_ms, 100.0 * r.all.attainment,
        r.all.goodput_per_sec);
    json.value(names[i], "offered_per_sec", r.totals.offered_per_sec);
    json.value(names[i], "arrivals", static_cast<double>(r.totals.arrivals));
    json.value(names[i], "completed", static_cast<double>(r.all.completed));
    json.value(names[i], "failed", static_cast<double>(r.all.failed));
    json.value(names[i], "in_flight_at_end",
               static_cast<double>(r.in_flight));
    json.value(names[i], "p50_ms", r.all.p50_ms);
    json.value(names[i], "p99_ms", r.all.p99_ms);
    json.value(names[i], "p999_ms", r.all.p999_ms);
    json.value(names[i], "attainment", r.all.attainment);
    json.value(names[i], "goodput_per_sec", r.all.goodput_per_sec);
    json.value(names[i], "read_p99_ms", r.read.p99_ms);
    json.value(names[i], "read_attainment", r.read.attainment);
    json.value(names[i], "write_p99_ms", r.write.p99_ms);
    json.value(names[i], "write_attainment", r.write.attainment);
    json.value(names[i], "cold_restarts",
               static_cast<double>(r.cold_restarts));
  }

  // The headline comparison: same load, same crash schedule, the only
  // difference is the file system architecture.
  now::bench::row("");
  now::bench::row("%-28s %14s %14s", "crash@15s cell", "central", "xfs");
  for (std::size_t li = 0; li < kLoads.size(); ++li) {
    const CellResult& ce = cells[grid.flat({0, 1, li})];
    const CellResult& xf = cells[grid.flat({1, 1, li})];
    now::bench::row("%-7s %-20s %13.2f %14.2f", kLoadLabels[li].c_str(),
                    "p99 ms", ce.all.p99_ms, xf.all.p99_ms);
    now::bench::row("%-7s %-20s %13.1f%% %13.1f%%", "",
                    "SLO attainment", 100.0 * ce.all.attainment,
                    100.0 * xf.all.attainment);
  }
  now::bench::row("");
  now::bench::row("expected shape: the central design's write-through disk "
                  "saturates first - queues");
  now::bench::row("outrun the 500 ms RPC timeout and attainment collapses; "
                  "under the crash it also");
  now::bench::row("restarts with a cold server cache.  xFS stripes the "
                  "same bytes over every disk");
  now::bench::row("and rides the crash out via manager takeover and "
                  "degraded reads, so its tail");
  now::bench::row("diverges from the incumbent's as load and faults "
                  "stack up.");

  // ---- Part two: building-wide serving on the fat-tree fabric ----------
  const std::uint32_t bld_clients = parse_clients(argc, argv);
  std::vector<std::uint32_t> bld_sizes = now::bench::cap_axis(
      {256, 1024}, now::bench::parse_nodes(argc, argv));
  for (std::uint32_t& s : bld_sizes) {
    // Whole racks only, and spread placement needs a rack besides the
    // server's: clamp to multiples of 32, minimum two racks.
    s = std::max<std::uint32_t>(64, s / kNodesPerRack * kNodesPerRack);
  }

  struct BldPoint {
    std::uint32_t nodes;
    bool spread;
    double load;
    bool churn;
  };
  std::vector<BldPoint> pts;
  std::vector<std::string> bld_names;
  for (const std::uint32_t n : bld_sizes) {
    for (int pl = 0; pl < 2; ++pl) {
      for (const double load : kBldLoads) {
        pts.push_back({n, pl == 1, load, false});
        bld_names.push_back("bld_" + std::to_string(n) + "n_" +
                            (pl ? "spread" : "inrack") + "_" +
                            std::to_string(static_cast<int>(load)) + "rps");
      }
    }
  }
  // One churn cell: the largest building, spread placement, low load —
  // compared against its always-on twin below.
  pts.push_back({bld_sizes.back(), true, kBldLoads.front(), true});
  bld_names.push_back("bld_" + std::to_string(bld_sizes.back()) +
                      "n_spread_" +
                      std::to_string(static_cast<int>(kBldLoads.front())) +
                      "rps_churn");

  // Building points share the base seed (not per-point derived seeds) so
  // in-rack and spread rows at the same size/load run the *identical*
  // arrival schedule — the placement column is the only variable.
  const std::size_t bld_base = grid.size();
  const auto bld = sweep.run(bld_names, [&](now::exp::RunContext& ctx) {
    const BldPoint& p = pts[ctx.task_index - bld_base];
    return run_building(p.nodes, bld_clients, p.spread, p.load, p.churn,
                        sweep.base_seed());
  });

  now::bench::row("");
  now::bench::row("building-wide serving: %u streaming clients, central "
                  "server at node 0, reads only",
                  bld_clients);
  now::bench::row("%6s %8s %9s %7s %9s %8s %8s %8s %7s %9s", "nodes",
                  "clients", "placement", "load/s", "arrivals", "p50 ms",
                  "p99 ms", "p999 ms", "attain", "goodput/s");
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const BldPoint& p = pts[i];
    if (p.churn) continue;  // churn subsection below
    const BldCell& r = bld[i];
    // Three decimals: below the knee the placement delta is tens of
    // microseconds of fabric, and two would round it away.
    now::bench::row(
        "%6u %8u %9s %7d %9llu %8.3f %8.3f %8.3f %6.1f%% %9.1f", p.nodes,
        bld_clients, p.spread ? "spread" : "in-rack",
        static_cast<int>(p.load),
        static_cast<unsigned long long>(r.totals.arrivals), r.all.p50_ms,
        r.all.p99_ms, r.all.p999_ms, 100.0 * r.all.attainment,
        r.all.goodput_per_sec);
  }
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const BldPoint& p = pts[i];
    const BldCell& r = bld[i];
    json.value(bld_names[i], "nodes", static_cast<double>(p.nodes));
    json.value(bld_names[i], "clients", static_cast<double>(bld_clients));
    json.value(bld_names[i], "offered_per_sec", r.totals.offered_per_sec);
    json.value(bld_names[i], "arrivals",
               static_cast<double>(r.totals.arrivals));
    json.value(bld_names[i], "completed",
               static_cast<double>(r.all.completed));
    json.value(bld_names[i], "failed", static_cast<double>(r.all.failed));
    json.value(bld_names[i], "in_flight_at_end",
               static_cast<double>(r.in_flight));
    json.value(bld_names[i], "p50_ms", r.all.p50_ms);
    json.value(bld_names[i], "p99_ms", r.all.p99_ms);
    json.value(bld_names[i], "p999_ms", r.all.p999_ms);
    json.value(bld_names[i], "attainment", r.all.attainment);
    json.value(bld_names[i], "goodput_per_sec", r.all.goodput_per_sec);
    json.value(bld_names[i], "sessions_at_peak",
               static_cast<double>(r.sessions_at_peak));
  }

  // Churn subsection: same building, same load, but clients log in and
  // out riding a compressed diurnal day instead of staying on.
  const BldCell& churn = bld.back();
  std::size_t twin = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const BldPoint& p = pts[i];
    if (!p.churn && p.nodes == bld_sizes.back() && p.spread &&
        p.load == kBldLoads.front()) {
      twin = i;
    }
  }
  now::bench::row("");
  now::bench::row("session churn (%un spread, %d/s): mean-on 3 s / "
                  "mean-off 2 s over an 8 s diurnal day",
                  bld_sizes.back(), static_cast<int>(kBldLoads.front()));
  now::bench::row("%-24s %12s %12s", "", "always-on", "churning");
  now::bench::row("%-24s %12llu %12llu", "arrivals",
                  static_cast<unsigned long long>(bld[twin].totals.arrivals),
                  static_cast<unsigned long long>(churn.totals.arrivals));
  now::bench::row(
      "%-24s %12llu %12llu", "sessions live at peak",
      static_cast<unsigned long long>(bld[twin].sessions_at_peak),
      static_cast<unsigned long long>(churn.sessions_at_peak));
  now::bench::row("%-24s %12.2f %12.2f", "p99 ms", bld[twin].all.p99_ms,
                  churn.all.p99_ms);
  now::bench::row("");
  now::bench::row("expected shape: in-rack and spread rows at one load "
                  "share an arrival schedule,");
  now::bench::row("so below the knee their latency gap is the price of "
                  "the oversubscribed spine -");
  now::bench::row("tens of microseconds on a sub-millisecond floor.  Past "
                  "the knee the one server");
  now::bench::row("saturates and both placements collapse together: at "
                  "building scale the central");
  now::bench::row("bottleneck is the server, never the fabric, which is "
                  "the paper's case against");
  now::bench::row("central servers restated.  Churn only removes arrivals "
                  "(logged-out clients stay");
  now::bench::row("quiet): the churning column offers less load and even "
                  "its peak live-session");
  now::bench::row("count sits below the population.");

  // ---- Part three: replayed arrivals next to the open population -------
  const std::string trace_path = now::bench::parse_trace(argc, argv);
  if (!trace_path.empty()) {
    const double scale = now::bench::parse_trace_scale(argc, argv);
    const auto ts = replay::summarize(trace_path);
    const auto rcell = sweep.run(
        {"replay_cell"},
        [&](now::exp::RunContext& ctx) {
          return run_replay_cell(trace_path, scale, ctx);
        })[0];
    now::bench::row("");
    now::bench::row("replayed arrivals: %s (%s, %llu records, time scale "
                    "%gx) over %u replay clients,",
                    trace_path.c_str(), replay::to_string(ts.format),
                    static_cast<unsigned long long>(ts.records), scale,
                    kReplayClients);
    now::bench::row("on top of the 16-client open population at %.0f/s; "
                    "central backend",
                    kReplayBackgroundLoad);
    now::bench::row("");
    now::bench::row("%-12s %10s %10s %10s %8s %8s %8s %7s", "arrivals",
                    "open", "replayed", "completed", "p50 ms", "p99 ms",
                    "p999 ms", "attain");
    now::bench::row("%-12s %10llu %10llu %10llu %8.2f %8.2f %8.2f %6.1f%%",
                    "",
                    static_cast<unsigned long long>(
                        rcell.totals.open_arrivals),
                    static_cast<unsigned long long>(
                        rcell.totals.replayed_arrivals),
                    static_cast<unsigned long long>(rcell.all.completed),
                    rcell.all.p50_ms, rcell.all.p99_ms, rcell.all.p999_ms,
                    100.0 * rcell.all.attainment);
    json.value("replay_cell", "open_arrivals",
               static_cast<double>(rcell.totals.open_arrivals));
    json.value("replay_cell", "replayed_arrivals",
               static_cast<double>(rcell.totals.replayed_arrivals));
    json.value("replay_cell", "completed",
               static_cast<double>(rcell.all.completed));
    json.value("replay_cell", "p50_ms", rcell.all.p50_ms);
    json.value("replay_cell", "p99_ms", rcell.all.p99_ms);
    json.value("replay_cell", "attainment", rcell.all.attainment);
    now::bench::row("");
    now::bench::row("the recorded stream rides the same SLOs and report "
                    "path as the synthetic sources.");
  }

  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  json.value("aggregate", "max_rss_mb",
             static_cast<double>(ru.ru_maxrss) / 1024.0);
  json.note("building cells stream arrivals, one pending event per "
            "client: rss stays flat in the horizon and is measurement, not "
            "part of the deterministic surface");
  return 0;
}
