// The two serving workloads: open Poisson loops in simulated time, timed
// per request from its scheduled arrival by serve::SloTracker.
//
//   serve_xfs       16 clients -> 17-node xFS (one RAID-5 over every disk,
//                   64-block client caches), 1600 req/s, 75 % reads /
//                   25 % writes: the whole engine -> net -> AM/RPC -> xFS ->
//                   log -> RAID -> disk stack near xFS's knee.
//   serve_building  2048 thin clients spread over every rack but the
//                   server's on a 1024-node fat tree, 3000 req/s of reads
//                   to a prewarmed central server on node 0: fabric, arrival
//                   streaming and 1024-node set-up; xFS, RAID and the log
//                   do no work.
#include <algorithm>

#include "engine_layers.hpp"
#include "net/placement.hpp"
#include "serve/workload.hpp"
#include "xfs/central_server.hpp"

namespace perfbench {
namespace {

using namespace now;

constexpr std::uint32_t kWorkingSet = 2'000;
constexpr sim::Duration kReadSlo = 25 * sim::kMillisecond;
constexpr sim::Duration kWriteSlo = 100 * sim::kMillisecond;
/// Simulated length of one traced run_until slice.
constexpr sim::Duration kSlice = 100 * sim::kMillisecond;

constexpr std::uint32_t kXfsClients = 16;
constexpr double kXfsOffered = 1'600.0;
constexpr sim::SimTime kXfsHorizon = 30 * sim::kSecond;
constexpr sim::Duration kXfsDrain = 5 * sim::kSecond;

constexpr std::uint32_t kBldNodes = 1'024;
constexpr std::uint32_t kNodesPerRack = 32;
constexpr double kOversub = 4.0;
constexpr std::uint32_t kBldClients = 2'048;
constexpr double kBldOffered = 3'000.0;
constexpr sim::SimTime kBldHorizon = 10 * sim::kSecond;
constexpr sim::Duration kBldDrain = 2 * sim::kSecond;

serve::RequestClass file_class(const char* name, serve::RequestOp op,
                               double weight, sim::Duration slo) {
  serve::RequestClass c;
  c.name = name;
  c.op = op;
  c.weight = weight;
  c.slo = slo;
  c.working_set = kWorkingSet;
  return c;
}

sim::SimTime horizon_or(const Options& opt, sim::SimTime def) {
  return opt.sim_ms > 0 ? opt.sim_ms * sim::kMillisecond : def;
}

/// Digest of the first arrivals of the first clients: what --seed feeds
/// into the arrival streams.
std::uint64_t arrivals_digest(const serve::ServeConfig& sc) {
  const serve::ClientPopulation pop(sc.population, sc.seed);
  Digest d;
  for (std::uint32_t cl = 0; cl < std::min<std::uint32_t>(8, pop.clients());
       ++cl) {
    serve::ArrivalStream s = pop.stream(cl);
    for (int i = 0; i < 32; ++i) {
      const auto t = s.next();
      if (!t) break;
      d.add(static_cast<std::uint64_t>(*t));
    }
  }
  return d.value();
}

/// Simulated results, conservation checks and serve.* counters.
void harvest(const serve::ServeWorkload& w, sim::SimTime horizon,
             RepResult& r, Digest& d) {
  const serve::ServeTotals t = w.totals();
  const serve::SloClassReport all = w.slo().overall(horizon);
  const std::uint64_t in_flight = w.in_flight();
  r.ops = t.arrivals;
  r.failed = all.failed;
  r.check(t.arrivals == t.completed + in_flight,
          "request conservation: arrivals != completed + in_flight");
  r.check(in_flight == 0, "requests still in flight after the drain");
  r.check(all.completed == t.completed,
          "SLO tracker saw a different number of completions");

  r.sim["sim_p50_ms"] = {all.p50_ms, "ms"};
  r.sim["sim_p999_ms"] = {all.p999_ms, "ms"};
  r.sim["sim_mean_ms"] = {all.mean_ms, "ms"};
  r.sim["sim_samples"] = {static_cast<double>(all.completed), "count"};
  r.sim["slo_attainment"] = {all.attainment, "fraction"};

  r.counts["serve.arrivals"] = {static_cast<double>(t.arrivals), "count"};
  r.counts["serve.completed"] = {static_cast<double>(t.completed), "count"};
  r.counts["serve.failed"] = {static_cast<double>(all.failed), "count"};
  r.counts["serve.in_flight_end"] = {static_cast<double>(in_flight), "count"};

  d.add(t.arrivals);
  d.add(t.completed);
  d.add(in_flight);
  for (std::size_t cls = 0; cls < w.slo().classes(); ++cls) {
    const serve::SloClassReport c = w.slo().report(cls, horizon);
    d.add(c.completed);
    d.add(c.ok);
    d.add(c.failed);
    d.add(c.slo_met);
    d.add_double(c.mean_ms);
    d.add_double(c.p50_ms);
    d.add_double(c.p99_ms);
    d.add_double(c.p999_ms);
    d.add_double(c.max_ms);
  }
}

/// Extra counters sampled at every traced slice boundary.
auto serve_sampler(const serve::ServeWorkload& w) {
  return [&w](std::vector<std::pair<const char*, double>>& v) {
    const serve::ServeTotals t = w.totals();
    v.emplace_back("serve.arrivals", static_cast<double>(t.arrivals));
    v.emplace_back("serve.completed", static_cast<double>(t.completed));
  };
}

}  // namespace

RepResult run_serve_xfs(const Options& opt, Spans& spans) {
  RepResult r;
  const sim::SimTime horizon = horizon_or(opt, kXfsHorizon);
  SpanScope rep(spans, "rep");
  const auto t0 = Clock::now();
  const int setup = spans.begin("setup");

  ClusterConfig cfg;
  cfg.workstations = kXfsClients + 1;
  cfg.with_glunix = false;
  cfg.with_xfs = true;
  cfg.xfs.client_cache_blocks = 64;
  cfg.stripe_group_size = 0;  // one RAID-5 across all seventeen disks
  cfg.partitioning = Partitioning::kAllGlobal;
  cfg.seed = opt.seed;
  auto tb = Clock::now();
  const int build = spans.begin("core.build");
  Cluster c(cfg);
  spans.end(build);
  r.setup_steps["core.build_s"] = seconds_since(tb);

  serve::ServeConfig sc;
  sc.population.clients = kXfsClients;
  sc.population.open_fraction = 1.0;
  sc.population.offered_per_sec = kXfsOffered;
  sc.population.horizon = horizon;
  sc.classes = {
      file_class("read", serve::RequestOp::kFileRead, 0.75, kReadSlo),
      file_class("write", serve::RequestOp::kFileWrite, 0.25, kWriteSlo)};
  for (std::uint32_t i = 1; i <= kXfsClients; ++i) sc.client_nodes.push_back(i);
  sc.seed = opt.seed;
  r.inputs_digest = arrivals_digest(sc);

  tb = Clock::now();
  const int start = spans.begin("serve.start");
  serve::Backends b;
  b.xfs = &c.fs();
  serve::ServeWorkload w(c.engine(), b, sc);
  w.start();
  spans.end(start);
  r.setup_steps["serve.start_s"] = seconds_since(tb);
  spans.end(setup);
  r.setup_s = seconds_since(t0);

  const auto tr = Clock::now();
  {
    SpanScope run(spans, "run");
    drive(c, horizon + kXfsDrain, kSlice, spans, serve_sampler(w));
  }
  r.run_s = seconds_since(tr);

  SpanScope check(spans, "check");
  Digest d;
  harvest(w, horizon, r, d);
  add_engine_counts(c, r, &d);
  // Printed on every run, not enforced: a block its owner re-acquires while
  // the block is in a segment flush loses its owner record when the flush
  // notice lands, which leaves two dirty holders on some seeds (2, 5 and 9
  // among 1-10).  Enforcing it would fail the benchmark on those seeds
  // until xFS keeps the record; then this becomes r.check().
  const bool coherent = c.fs().coherence_invariant_holds();
  if (!coherent) {
    r.unenforced_failures.push_back(
        "Xfs::coherence_invariant_holds() is false after the drain");
  }
  r.counts["xfs.coherence_violations"] = {coherent ? 0.0 : 1.0, "count"};

  const xfs::XfsStats& xs = c.fs().stats();
  const raid::RaidStats rs = c.storage_stats();
  std::uint64_t disk_reads = 0, disk_writes = 0;
  for (std::uint32_t n = 0; n < c.size(); ++n) {
    disk_reads += c.node(n).disk().reads();
    disk_writes += c.node(n).disk().writes();
  }
  const std::pair<const char*, std::uint64_t> storage[] = {
      {"xfs.reads", xs.reads},
      {"xfs.writes", xs.writes},
      {"xfs.local_hits", xs.local_hits},
      {"xfs.peer_fetches", xs.peer_fetches},
      {"xfs.log_reads", xs.log_reads},
      {"xfs.invalidations", xs.invalidations},
      {"xfs.op_retries", xs.op_retries},
      {"xfs.failed_ops", xs.failed_ops},
      {"log.segments_written", c.log().stats().segments_written},
      {"raid.reads", rs.reads},
      {"raid.writes", rs.writes},
      {"raid.parity_updates", rs.parity_updates},
      {"raid.full_stripe_writes", rs.full_stripe_writes},
      {"disk.reads", disk_reads},
      {"disk.writes", disk_writes},
  };
  for (const auto& [name, v] : storage) {
    r.counts[name] = {static_cast<double>(v), "count"};
    d.add(v);
  }
  r.digest = d.value();
  return r;
}

RepResult run_serve_building(const Options& opt, Spans& spans) {
  RepResult r;
  const sim::SimTime horizon = horizon_or(opt, kBldHorizon);
  SpanScope rep(spans, "rep");
  const auto t0 = Clock::now();
  const int setup = spans.begin("setup");

  ClusterConfig cfg;
  cfg.workstations = kBldNodes;
  cfg.fabric = Fabric::kBuildingNow;
  cfg.building =
      net::building_now(kBldNodes / kNodesPerRack, kNodesPerRack, kOversub);
  cfg.with_glunix = false;
  cfg.partitioning = Partitioning::kAllGlobal;
  cfg.seed = opt.seed;
  auto tb = Clock::now();
  const int build = spans.begin("core.build");
  Cluster c(cfg);
  spans.end(build);
  r.setup_steps["core.build_s"] = seconds_since(tb);

  // Thin clients: no client cache, so every read crosses the fabric to a
  // server whose memory already holds the working set.
  const int backend = spans.begin("backend.build");
  xfs::CentralFsParams p;
  p.client_cache_blocks = 0;
  std::vector<os::Node*> fs_clients;
  for (std::uint32_t i = 1; i < kBldNodes; ++i) {
    fs_clients.push_back(&c.node(i));
  }
  xfs::CentralServerFs fs(c.rpc(), c.node(0), fs_clients, p);
  fs.prewarm(kWorkingSet);
  fs.start();
  spans.end(backend);

  serve::ServeConfig sc;
  sc.population.clients = kBldClients;
  sc.population.open_fraction = 1.0;
  sc.population.offered_per_sec = kBldOffered;
  sc.population.horizon = horizon;
  sc.classes = {
      file_class("read", serve::RequestOp::kFileRead, 1.0, kReadSlo)};
  sc.client_nodes = net::spread_clients(cfg.building.topo, 0, kBldClients);
  sc.seed = opt.seed;
  r.inputs_digest = arrivals_digest(sc);

  tb = Clock::now();
  const int start = spans.begin("serve.start");
  serve::Backends b;
  b.central = &fs;
  serve::ServeWorkload w(c.engine(), b, sc);
  w.start();
  spans.end(start);
  r.setup_steps["serve.start_s"] = seconds_since(tb);
  spans.end(setup);
  r.setup_s = seconds_since(t0);

  const auto tr = Clock::now();
  {
    SpanScope run(spans, "run");
    drive(c, horizon + kBldDrain, kSlice, spans, serve_sampler(w));
  }
  r.run_s = seconds_since(tr);

  SpanScope check(spans, "check");
  Digest d;
  harvest(w, horizon, r, d);
  add_engine_counts(c, r, &d);
  const xfs::CentralFsStats cs = fs.stats();
  const std::pair<const char*, std::uint64_t> central[] = {
      {"central.server_mem_hits", cs.server_mem_hits},
      {"central.server_disk_reads", cs.server_disk_reads},
      {"central.failed_ops", cs.failed_ops},
  };
  for (const auto& [name, v] : central) {
    r.counts[name] = {static_cast<double>(v), "count"};
    d.add(v);
  }
  r.digest = d.value();
  return r;
}

}  // namespace perfbench
