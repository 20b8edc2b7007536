// xFS vs the central server it replaces: throughput and availability.
//
// "Any centralized resource will become a bottleneck with enough users" —
// sweep the client count over the same workload on both architectures and
// watch the central server's disk and CPU saturate while xFS spreads the
// load over everyone.  Then kill one machine in each design.
//
// The five client counts are independent sweep points (--jobs N).  Both
// designs inside a point draw the identical request stream from the
// point's derived seed, so the comparison stays controlled and the point
// is a pure function of (base seed, index).
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/cluster.hpp"
#include "replay/cursor.hpp"
#include "replay/driver.hpp"
#include "sim/random.hpp"
#include "xfs/central_server.hpp"

namespace {

using namespace now;

struct RunResult {
  double ops_per_sec = 0;
  double mean_ms = 0;
};

// One design's cluster and file service: xFS is the cluster's own; the
// central server runs on node 0 and serves nodes 1..nclients.
struct Design {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<xfs::CentralServerFs> central;
  xfs::FileService& fs() {
    if (central) return *central;
    return cluster->fs();
  }
};

Design build(std::uint32_t nclients, bool use_xfs, exp::RunContext& ctx) {
  ClusterConfig cfg;
  cfg.workstations = nclients + 1;  // +1 server
  cfg.with_glunix = false;
  cfg.with_xfs = use_xfs;
  // The xFS settings are ignored without xFS.
  cfg.xfs.client_cache_blocks = 64;
  cfg.xfs.segment_blocks = std::min<std::uint32_t>(nclients, 16);
  cfg.run = &ctx;
  Design d;
  d.cluster = std::make_unique<Cluster>(cfg);
  if (!use_xfs) {
    xfs::CentralFsParams p;
    p.client_cache_blocks = 64;
    std::vector<os::Node*> clients;
    for (std::uint32_t i = 1; i <= nclients; ++i) {
      clients.push_back(&d.cluster->node(i));
    }
    d.central = std::make_unique<xfs::CentralServerFs>(
        d.cluster->rpc(), d.cluster->node(0), clients, p);
    d.central->start();
  }
  return d;
}

// Each client issues `per_client` ops with 20 ms think time; reads draw
// from a shared pool with Zipf-ish reuse, 25 % writes.
RunResult run_design(std::uint32_t nclients, int per_client, bool use_xfs,
                     exp::RunContext& ctx) {
  Design d = build(nclients, use_xfs, ctx);
  Cluster& c = *d.cluster;
  xfs::FileService& fs = d.fs();

  auto rng = std::make_shared<sim::Pcg32>(ctx.seed);
  auto total_ms = std::make_shared<double>(0);
  auto done_ops = std::make_shared<int>(0);
  auto issue = std::make_shared<
      std::function<void(std::uint32_t, int)>>();
  *issue = [&c, &fs, rng, total_ms, done_ops, issue](std::uint32_t client,
                                                     int remaining) {
    if (remaining == 0) return;
    const xfs::BlockId b = rng->next_below(2'000);
    const sim::SimTime t0 = c.engine().now();
    auto cont = [&c, client, remaining, t0, total_ms, done_ops,
                 issue](bool) {
      *total_ms += sim::to_ms(c.engine().now() - t0);
      ++*done_ops;
      c.engine().schedule_in(20 * sim::kMillisecond,
                             [issue, client, remaining] {
                               if (*issue) (*issue)(client, remaining - 1);
                             });
    };
    if (rng->bernoulli(0.25)) {
      fs.write(client, b, cont);
    } else {
      fs.read(client, b, cont);
    }
  };
  for (std::uint32_t cl = 1; cl <= nclients; ++cl) (*issue)(cl, per_client);
  c.run();
  *issue = nullptr;
  RunResult r;
  r.ops_per_sec = *done_ops / sim::to_sec(c.engine().now());
  r.mean_ms = *total_ms / *done_ops;
  return r;
}

struct Point {
  RunResult central;
  RunResult xfs;
};

struct ReplayResult {
  double ops_per_sec = 0;
  double mean_ms = 0;
  replay::ReplayStats stats;
};

// Replays a recorded trace against either design.  Open loop re-offers
// each record at its recorded (scaled) instant; closed loop ("afap")
// keeps one request per recorded client outstanding and ignores the
// timestamps — the capacity measurement.  Trace clients fold onto the
// cluster's client nodes and recorded blocks onto the bench's 2,000-block
// working set, so both designs see exactly the recorded reference string.
ReplayResult run_replay(const std::string& path, bool use_xfs,
                        bool open_loop, double time_scale,
                        const replay::TraceSummary& ts,
                        exp::RunContext& ctx) {
  const std::uint32_t nclients = std::max<std::uint32_t>(ts.clients, 1);
  Design d = build(nclients, use_xfs, ctx);
  Cluster& c = *d.cluster;
  xfs::FileService& fs = d.fs();

  auto total_ms = std::make_shared<double>(0);
  auto cur = replay::open_trace(path);
  replay::IssueFn issue = [&c, &fs, nclients, total_ms](
                              const trace::FsAccess& a,
                              std::function<void()> done) {
    const std::uint32_t client = 1 + a.client % nclients;
    const xfs::BlockId b = a.block % 2'000;
    const sim::SimTime t0 = c.engine().now();
    auto cont = [&c, t0, total_ms, done = std::move(done)](bool) {
      *total_ms += sim::to_ms(c.engine().now() - t0);
      done();
    };
    if (a.is_write) {
      fs.write(client, b, cont);
    } else {
      fs.read(client, b, cont);
    }
  };

  ReplayResult r;
  if (open_loop) {
    replay::OpenLoopReplay drv(c.engine(), *cur, time_scale, issue);
    drv.start();
    c.run();
    r.stats = drv.stats();
  } else {
    replay::ClosedLoopReplay drv(c.engine(), *cur, nclients, issue);
    drv.start();
    c.run();
    r.stats = drv.stats();
  }
  if (r.stats.completed > 0) {
    r.ops_per_sec = static_cast<double>(r.stats.completed) /
                    sim::to_sec(c.engine().now());
    r.mean_ms = *total_ms / static_cast<double>(r.stats.completed);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  now::bench::heading(
      "xFS vs central-server file service - scalability",
      "'A Case for NOW', xFS motivation: 'any centralized resource will "
      "become a bottleneck with enough users'");
  now::bench::Sweep sweep(argc, argv, "bench/bench_xfs_vs_central");

  now::bench::row("%-10s %16s %14s %16s %14s", "clients",
                  "central ops/s", "central ms", "xFS ops/s", "xFS ms");
  const std::vector<std::uint32_t> client_counts{2, 4, 8, 16, 24};
  std::vector<std::string> names;
  for (const std::uint32_t n : client_counts) {
    names.push_back("clients_" + std::to_string(n));
  }
  const auto points = sweep.run(names, [&](now::exp::RunContext& ctx) {
    const std::uint32_t n = client_counts[ctx.task_index];
    Point p;
    p.central = run_design(n, 120, /*use_xfs=*/false, ctx);
    p.xfs = run_design(n, 120, /*use_xfs=*/true, ctx);
    return p;
  });
  for (std::size_t i = 0; i < points.size(); ++i) {
    now::bench::row("%-10u %16.0f %14.2f %16.0f %14.2f", client_counts[i],
                    points[i].central.ops_per_sec, points[i].central.mean_ms,
                    points[i].xfs.ops_per_sec, points[i].xfs.mean_ms);
  }
  now::bench::row("");
  now::bench::row("expected shape: the central design's response time "
                  "grows with client count as");
  now::bench::row("the one server's disk queue deepens; xFS response "
                  "stays flat because managers,");
  now::bench::row("caches, and disks scale with the building.");
  now::bench::row("");
  now::bench::row("availability: kill one machine -");
  now::bench::row("  central server dies  -> every client op fails "
                  "(stats.failed_ops)");
  now::bench::row("  one xFS node dies    -> manager takeover + degraded "
                  "RAID reads (see bench_xfs)");

  // --- Recorded-trace replay (--trace <path>) ----------------------------
  // Four more sweep points: each design replays the recorded stream under
  // both drivers.  Open loop preserves the recorded arrival schedule
  // (response time under the workload as it happened); closed loop retires
  // the trace as fast as possible (capacity on the recorded reference
  // string).
  const std::string trace_path = now::bench::parse_trace(argc, argv);
  if (!trace_path.empty()) {
    const double scale = now::bench::parse_trace_scale(argc, argv);
    const auto ts = replay::summarize(trace_path);
    now::bench::JsonReport report(argc, argv,
                                  "bench/bench_xfs_vs_central.replay",
                                  "ops_per_sec, ms");
    report.method("recorded-trace replay via now::replay: open loop "
                  "(as-recorded schedule / --trace-scale) and closed loop "
                  "(as fast as possible, one outstanding request per "
                  "recorded client)");
    now::bench::row("");
    now::bench::row("replayed trace: %s", trace_path.c_str());
    now::bench::row("  format %s, %llu records, %u clients, %.1f s "
                    "recorded, time scale %gx",
                    replay::to_string(ts.format),
                    static_cast<unsigned long long>(ts.records),
                    std::max<std::uint32_t>(ts.clients, 1),
                    sim::to_sec(ts.last_at - ts.first_at), scale);
    now::bench::row("");
    now::bench::row("%-22s %12s %12s %12s %8s", "design / driver", "ops/s",
                    "mean ms", "completed", "late");
    struct RPoint {
      const char* name;
      bool use_xfs;
      bool open_loop;
    };
    const std::vector<RPoint> rpoints{
        {"central open-loop", false, true},
        {"xFS open-loop", true, true},
        {"central closed-afap", false, false},
        {"xFS closed-afap", true, false},
    };
    std::vector<std::string> rnames;
    for (const RPoint& rp : rpoints) {
      std::string n = std::string("replay_") + rp.name;
      for (char& ch : n) {
        if (ch == ' ' || ch == '-') ch = '_';
      }
      rnames.push_back(n);
    }
    const std::size_t replay_first = names.size();
    const auto rresults = sweep.run(rnames, [&](now::exp::RunContext& ctx) {
      const RPoint& rp = rpoints[ctx.task_index - replay_first];
      return run_replay(trace_path, rp.use_xfs, rp.open_loop, scale, ts,
                        ctx);
    });
    for (std::size_t i = 0; i < rpoints.size(); ++i) {
      const ReplayResult& r = rresults[i];
      now::bench::row("%-22s %12.0f %12.2f %12llu %8llu", rpoints[i].name,
                      r.ops_per_sec, r.mean_ms,
                      static_cast<unsigned long long>(r.stats.completed),
                      static_cast<unsigned long long>(r.stats.late));
      report.value(rnames[i], "ops_per_sec", r.ops_per_sec);
      report.value(rnames[i], "mean_ms", r.mean_ms);
      report.value(rnames[i], "issued",
                   static_cast<double>(r.stats.issued));
      report.value(rnames[i], "completed",
                   static_cast<double>(r.stats.completed));
      report.value(rnames[i], "late", static_cast<double>(r.stats.late));
    }
    report.note("trace: " + trace_path);
    now::bench::row("");
    now::bench::row("open loop holds the recorded schedule (late = records "
                    "the design could not accept on time); closed loop is "
                    "the capacity bound on the recorded reference string.");
  }
  return 0;
}
