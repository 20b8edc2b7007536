// Availability under failures: xFS vs the central server it replaces.
//
// "Unfortunately, a central server design has performance, availability,
// and cost drawbacks" — here the availability half of that sentence.  Node
// 0 is the single server in the central design and just another
// manager/RAID member in xFS.  A scripted FaultPlan crashes it every T
// seconds (the sweep axis) and repairs it 10 s later while sixteen clients
// hammer the file service; availability is the fraction of issued
// operations that completed successfully by the end of the run.  The
// schedule is scripted rather than stochastic so the availability curve is
// a pure function of the failure period — seeded exponential churn (the
// same machinery, higher variance) is exercised by tests/fault_test.cpp
// and examples/break_now.cpp.
//
// Expected shape: the central design loses every op issued during an
// outage (clients burn a 500 ms RPC timeout each), so its availability
// tracks the server's uptime — and each repair returns a server whose
// memory cache died with the machine ("cold" column), so post-outage
// reads pay the disk until it re-warms.  xFS rides out the same crashes: the
// failure detector re-points the dead machine's manager duty in ~500 ms,
// degraded RAID reads reconstruct its disk's data from survivors, and a
// background rebuild makes the array whole again after each restart —
// client ops retry through the outage instead of failing.
//
// The failure periods are independent sweep points (--jobs N).  Both
// designs inside a point draw the identical request stream from the
// point's derived seed and share the identical crash/restart schedule, so
// the comparison stays controlled and stdout is byte-identical for any
// --jobs value.
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/cluster.hpp"
#include "net/placement.hpp"
#include "sim/random.hpp"
#include "xfs/central_server.hpp"

namespace {

using namespace now;

constexpr std::uint32_t kClients = 16;
constexpr sim::SimTime kHorizon = 120 * sim::kSecond;
constexpr sim::Duration kOutage = 10 * sim::kSecond;  // crash-to-repair
constexpr sim::Duration kThink = 50 * sim::kMillisecond;
constexpr std::uint32_t kBlockPool = 2'000;

struct DesignResult {
  std::uint64_t issued = 0;
  std::uint64_t ok = 0;
  double availability = 1.0;  // ok / issued
  double mean_ms = 0;         // over completed ops, failures included
  std::uint64_t crashes = 0;
  std::uint64_t takeovers = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t cold_restarts = 0;  // central only: server came back empty
};

// Cluster shape shared by both designs in one sweep point.  The original
// Table rows use the 17-node flat default; the building-scale rows swap in
// a 1024-workstation fat tree and move the clients around it.
struct Shape {
  std::uint32_t workstations = kClients + 1;
  Fabric fabric = Fabric::kAtm;
  net::HierarchicalParams building = net::building_now(32, 32, 4.0);
  /// xFS storage servers per stripe group (0 = one RAID over everyone —
  /// right for 17 nodes, absurd for 1024).
  std::size_t stripe_group_size = 0;
  /// The client node ids (node 0 is always the server / first manager).
  std::vector<std::uint32_t> clients;

  static Shape flat17() {
    Shape s;
    for (std::uint32_t i = 1; i <= kClients; ++i) s.clients.push_back(i);
    return s;
  }
};

// Node 0 dies every `period` of uptime and comes back kOutage later.
fault::FaultPlan outage_plan(sim::Duration period) {
  fault::FaultPlan plan;
  if (period <= 0) return plan;
  for (sim::SimTime t = period; t < kHorizon; t += period + kOutage) {
    plan.crash_at(t, 0).restart_at(t + kOutage, 0);
  }
  return plan;
}

// Clients 1..16 issue ops back-to-back (50 ms think time, 25 % writes)
// until the horizon; the run then drains in-flight ops.  Every op ends —
// with success, or with a timeout/retry-exhaustion failure — and its
// completion says which, so issued - ok is exactly the failure count.
DesignResult run_design(bool use_xfs, sim::Duration period,
                        exp::RunContext& ctx, const Shape& shape) {
  ClusterConfig cfg;
  cfg.workstations = shape.workstations;
  cfg.fabric = shape.fabric;
  cfg.building = shape.building;
  cfg.with_glunix = false;
  cfg.with_xfs = use_xfs;
  // The xFS settings are ignored without xFS.
  cfg.xfs.client_cache_blocks = 64;
  cfg.stripe_group_size = shape.stripe_group_size;
  cfg.fault_plan = outage_plan(period);
  cfg.run = &ctx;
  Cluster c(cfg);
  std::unique_ptr<xfs::CentralServerFs> central;
  if (!use_xfs) {
    xfs::CentralFsParams p;
    p.client_cache_blocks = 64;
    std::vector<os::Node*> clients;
    for (const std::uint32_t i : shape.clients) clients.push_back(&c.node(i));
    central = std::make_unique<xfs::CentralServerFs>(c.rpc(), c.node(0),
                                                     clients, p);
    central->start();
    // Crashes of node 0 drop the server's in-memory cache, so each
    // restart is cold: post-outage reads pay the disk until it re-warms.
    c.faults().attach_central(central.get());
  }
  xfs::FileService& fs =
      central ? static_cast<xfs::FileService&>(*central) : c.fs();

  auto rng = std::make_shared<sim::Pcg32>(ctx.seed);
  auto issued = std::make_shared<std::uint64_t>(0);
  auto ok = std::make_shared<std::uint64_t>(0);
  auto done = std::make_shared<std::uint64_t>(0);
  auto total_ms = std::make_shared<double>(0);
  auto issue = std::make_shared<std::function<void(std::uint32_t)>>();
  *issue = [&c, &fs, rng, issued, ok, done, total_ms,
            issue](std::uint32_t client) {
    if (c.engine().now() >= kHorizon) return;
    ++*issued;
    const xfs::BlockId b = rng->next_below(kBlockPool);
    const sim::SimTime t0 = c.engine().now();
    auto cont = [&c, client, t0, ok, done, total_ms, issue](bool success) {
      ++*done;
      if (success) ++*ok;
      *total_ms += sim::to_ms(c.engine().now() - t0);
      c.engine().schedule_in(kThink, [issue, client] {
        if (*issue) (*issue)(client);
      });
    };
    if (rng->bernoulli(0.25)) {
      fs.write(client, b, cont);
    } else {
      fs.read(client, b, cont);
    }
  };
  for (const std::uint32_t cl : shape.clients) (*issue)(cl);
  c.run_until(kHorizon + 10 * sim::kSecond);  // drain in-flight ops
  *issue = nullptr;

  DesignResult r;
  r.issued = *issued;
  r.ok = *ok;
  r.availability = *issued ? static_cast<double>(*ok) / *issued : 1.0;
  r.mean_ms = *done ? *total_ms / *done : 0;
  r.crashes = c.faults().stats().node_crashes;
  if (central) {
    r.cold_restarts = central->stats().cold_restarts;
  } else {
    r.takeovers = c.faults().stats().manager_takeovers;
    r.rebuilds = c.faults().stats().rebuilds_completed;
  }
  return r;
}

struct Point {
  DesignResult central;
  DesignResult xfs;
};

}  // namespace

int main(int argc, char** argv) {
  now::bench::heading(
      "availability under failures - xFS vs central server",
      "'A Case for NOW': 'a central server design has performance, "
      "availability, and cost drawbacks'");
  now::bench::Sweep sweep(argc, argv, "bench/bench_availability");
  now::bench::JsonReport json(argc, argv, "bench_availability",
                              "availability_fraction");
  json.method(
      "16 clients, 120 s simulated; node 0 (central server / xFS "
      "manager+RAID member) crashes every <period> of uptime and is "
      "repaired 10 s later; availability = ops ok / ops issued");

  const std::vector<now::sim::Duration> periods{
      0, 60 * now::sim::kSecond, 30 * now::sim::kSecond,
      15 * now::sim::kSecond};
  const std::vector<std::string> labels{"none", "60 s", "30 s", "15 s"};
  const std::vector<std::string> names{"period_none", "period_60s",
                                       "period_30s", "period_15s"};

  const Shape flat = Shape::flat17();
  const auto points = sweep.run(names, [&](now::exp::RunContext& ctx) {
    Point p;
    const now::sim::Duration period = periods[ctx.task_index];
    p.central = run_design(false, period, ctx, flat);
    p.xfs = run_design(true, period, ctx, flat);
    return p;
  });

  now::bench::row("%-12s %9s %15s %8s %5s %3s %9s %15s %8s %6s %8s",
                  "fail period", "cen avail", "failed/issued", "ms", "cold",
                  "|", "xFS avail", "failed/issued", "ms", "tkovr",
                  "rebuilds");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const DesignResult& ce = points[i].central;
    const DesignResult& xf = points[i].xfs;
    const std::string cf = std::to_string(ce.issued - ce.ok) + "/" +
                           std::to_string(ce.issued);
    const std::string xff = std::to_string(xf.issued - xf.ok) + "/" +
                            std::to_string(xf.issued);
    now::bench::row(
        "%-12s %8.1f%% %15s %8.2f %5llu %3s %8.1f%% %15s %8.2f %6llu %8llu",
        labels[i].c_str(), 100.0 * ce.availability, cf.c_str(), ce.mean_ms,
        static_cast<unsigned long long>(ce.cold_restarts), "|",
        100.0 * xf.availability, xff.c_str(), xf.mean_ms,
        static_cast<unsigned long long>(xf.takeovers),
        static_cast<unsigned long long>(xf.rebuilds));
    json.value(names[i], "central_availability", ce.availability);
    json.value(names[i], "central_failed",
               static_cast<double>(ce.issued - ce.ok));
    json.value(names[i], "central_issued", static_cast<double>(ce.issued));
    json.value(names[i], "central_mean_ms", ce.mean_ms);
    json.value(names[i], "central_cold_restarts",
               static_cast<double>(ce.cold_restarts));
    json.value(names[i], "xfs_availability", xf.availability);
    json.value(names[i], "xfs_failed",
               static_cast<double>(xf.issued - xf.ok));
    json.value(names[i], "xfs_issued", static_cast<double>(xf.issued));
    json.value(names[i], "xfs_mean_ms", xf.mean_ms);
    json.value(names[i], "node0_crashes", static_cast<double>(xf.crashes));
    json.value(names[i], "xfs_takeovers", static_cast<double>(xf.takeovers));
    json.value(names[i], "xfs_rebuilds", static_cast<double>(xf.rebuilds));
  }
  // --- Building scale: the same duel inside a 1024-node fat tree --------
  // Node 0 still serves (or managers) and still dies every 30 s; the
  // cluster around it is now a building — racks of 32 on a 4:1
  // oversubscribed spine — and the sixteen clients sit either in the
  // server's own rack or spread one-per-rack across the building.  The
  // availability verdict must not change with scale (it is a property of
  // the design, not the fabric), while the latency column picks up the
  // spine: that separation is the point of the section.
  const std::uint32_t cap = now::bench::parse_nodes(argc, argv);
  std::uint32_t bsize = cap == 0 ? 1024 : cap;
  if (bsize < 64) bsize = 64;    // need >= 2 racks for a spread placement
  if (bsize > 1024) bsize = 1024;
  const std::uint32_t npr = 32;
  const std::uint32_t racks = bsize / npr;
  Shape in_rack;
  in_rack.workstations = bsize;
  in_rack.fabric = Fabric::kBuildingNow;
  in_rack.building = now::net::building_now(racks, npr, 4.0);
  in_rack.stripe_group_size = 8;  // xFS-style groups, not one 1024-disk RAID
  in_rack.clients =
      now::net::rack_local_clients(in_rack.building.topo, 0, kClients);
  Shape spread = in_rack;
  spread.clients = now::net::spread_clients(spread.building.topo, 0, kClients);
  const std::vector<std::pair<std::string, const Shape*>> placements{
      {"rack-local", &in_rack}, {"cross-rack", &spread}};
  std::vector<std::string> bnames;
  for (const auto& [label, s] : placements) {
    bnames.push_back("building_" + label);
  }
  const sim::Duration bperiod = 30 * now::sim::kSecond;
  const std::size_t first_section = names.size();
  const auto bpoints = sweep.run(bnames, [&](now::exp::RunContext& ctx) {
    Point p;
    const Shape& s = *placements[ctx.task_index - first_section].second;
    p.central = run_design(false, bperiod, ctx, s);
    p.xfs = run_design(true, bperiod, ctx, s);
    return p;
  });

  now::bench::row("");
  now::bench::row("building scale: %u workstations (%u racks of %u, 4:1 "
                  "spine), node 0 fails every 30 s;", bsize, racks, npr);
  now::bench::row("16 clients in the server's rack vs spread one-per-rack "
                  "(--nodes caps the size)");
  now::bench::row("");
  now::bench::row("%-12s %9s %8s %5s %3s %9s %8s %6s %8s", "clients",
                  "cen avail", "ms", "cold", "|", "xFS avail", "ms",
                  "tkovr", "rebuilds");
  for (std::size_t i = 0; i < bpoints.size(); ++i) {
    const DesignResult& ce = bpoints[i].central;
    const DesignResult& xf = bpoints[i].xfs;
    now::bench::row(
        "%-12s %8.1f%% %8.2f %5llu %3s %8.1f%% %8.2f %6llu %8llu",
        placements[i].first.c_str(), 100.0 * ce.availability, ce.mean_ms,
        static_cast<unsigned long long>(ce.cold_restarts), "|",
        100.0 * xf.availability, xf.mean_ms,
        static_cast<unsigned long long>(xf.takeovers),
        static_cast<unsigned long long>(xf.rebuilds));
    json.value(bnames[i], "central_availability", ce.availability);
    json.value(bnames[i], "central_mean_ms", ce.mean_ms);
    json.value(bnames[i], "xfs_availability", xf.availability);
    json.value(bnames[i], "xfs_mean_ms", xf.mean_ms);
    json.value(bnames[i], "workstations", bsize);
  }
  now::bench::row("");
  now::bench::row("expected shape: central availability tracks the one "
                  "server's uptime - every op");
  now::bench::row("issued during an outage burns a timeout and fails, and "
                  "each repair restarts the");
  now::bench::row("server cache cold.  xFS stays near 100%%: manager");
  now::bench::row("takeover re-points the dead machine's duty in ~500 ms, "
                  "degraded reads reconstruct");
  now::bench::row("its disk from survivors, and a background rebuild "
                  "repairs the array after each");
  now::bench::row("restart, so client ops retry through the outage "
                  "instead of failing.");
  return 0;
}
