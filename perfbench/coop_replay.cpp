// coop_replay: a closed loop with no engine.  A Table-3-shaped trace (42
// clients, 15k accesses each, 12,288 shared and 4,096 private blocks, Zipf
// 1.10) is generated from the seed and written to a native fs
// trace file by a separate process before timing starts; each repetition
// streams it through replay::open_trace into an N-chance CoopCacheSim
// (2048-block clients, 16384-block server) as fast as it can.  Cache and
// replay do almost all the work; engine, net and proto do none.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include "coopcache/coopcache.hpp"
#include "harness.hpp"
#include "replay/cursor.hpp"
#include "trace/fs_trace.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {
namespace {

using namespace now;

/// Records pulled through the cursor, then applied to the cache, per batch
/// (a traced run puts one span around each half).
constexpr std::size_t kBatch = 4'096;
/// Set-ups timed per repetition: one is tens of microseconds.
constexpr int kSetupSamples = 15;
/// A read meets its SLO when some machine's memory serves it (the study's
/// slowest memory level is 1.25 ms; a disk read is 15.85 ms).
constexpr sim::Duration kReadSlo = 2 * sim::kMillisecond;

coopcache::CoopCacheConfig cache_config(std::uint64_t seed) {
  coopcache::CoopCacheConfig cfg;
  cfg.clients = 42;
  cfg.client_cache_blocks = 2'048;   // 16 MB at 8 KB blocks
  cfg.server_cache_blocks = 16'384;  // 128 MB
  cfg.policy = coopcache::Policy::kNChance;
  cfg.seed = seed;
  return cfg;
}

}  // namespace

int generate_coop_trace(std::uint64_t seed, const std::string& path) {
  trace::FsWorkloadParams wp;
  wp.clients = 42;
  wp.accesses_per_client = 15'000;
  wp.shared_blocks = 12'288;
  wp.private_blocks = 4'096;
  wp.zipf_private = 1.10;
  wp.shared_fraction = 0.35;
  // Every client issues its accesses.  With the generator's default
  // activity skew the number of heavy clients is a binomial draw from the
  // seed, which moves the trace length (and the cache's working set) by a
  // third between seeds, so seeds would not be comparable runs.  15k each
  // keeps a repetition under a second: host speed on a shared machine
  // drifts, and a run needs many repetitions for a steady median.
  wp.heavy_client_fraction = 1.0;
  wp.seed = seed;
  const auto t0 = Clock::now();
  const std::vector<trace::FsAccess> accesses = trace::generate_fs_trace(wp);
  {
    std::ofstream out(path);
    trace::write_fs_trace(out, accesses);
    if (!out) {
      std::fprintf(stderr, "cannot write trace to %s\n", path.c_str());
      return 1;
    }
  }
  const double generate_s = seconds_since(t0);
  Digest d;
  for (const trace::FsAccess& a : accesses) {
    d.add(static_cast<std::uint64_t>(a.at));
    d.add(a.client);
    d.add(a.block);
    d.add(a.is_write ? 1 : 0);
  }
  std::printf("{\"records\": %zu, \"generate_s\": %.9f, "
              "\"inputs_digest\": \"%016llx\"}\n",
              accesses.size(), generate_s,
              static_cast<unsigned long long>(d.value()));
  return 0;
}

RepResult run_coop_replay(const Options& opt, Spans& spans) {
  RepResult r;
  const std::uint64_t warm = opt.trace_records * 2 / 5;
  SpanScope rep(spans, "rep");

  // Set-up is construction of the cache and the cursor; it is cheap, so it
  // is timed several times and the median reported.
  std::vector<double> setups;
  for (int i = 1; i < kSetupSamples; ++i) {
    const auto t0 = Clock::now();
    coopcache::CoopCacheSim sim(cache_config(opt.seed));
    auto cur = replay::open_trace(opt.trace_file);
    setups.push_back(seconds_since(t0));
  }
  const auto t0 = Clock::now();
  const int setup = spans.begin("setup");
  coopcache::CoopCacheSim sim(cache_config(opt.seed));
  std::unique_ptr<replay::TraceCursor> cur =
      replay::open_trace(opt.trace_file);
  spans.end(setup);
  setups.push_back(seconds_since(t0));
  r.setup_s = median(setups);

  std::vector<trace::FsAccess> batch;
  batch.reserve(kBatch);
  std::uint64_t records = 0;
  const auto tr = Clock::now();
  {
    SpanScope run(spans, "run");
    for (bool more = true; more;) {
      batch.clear();
      {
        SpanScope s(spans, "replay.next");
        while (batch.size() < kBatch) {
          auto a = cur->next();
          if (!a) {
            more = false;
            break;
          }
          batch.push_back(*a);
        }
      }
      SpanScope s(spans, "coop.access");
      for (const trace::FsAccess& a : batch) {
        if (records == warm) sim.reset_stats();
        sim.access(a.client, a.block, a.is_write);
        ++records;
      }
    }
  }
  r.run_s = seconds_since(tr);

  SpanScope check(spans, "check");
  const coopcache::CoopCacheResults& res = sim.results();
  r.ops = records;
  r.check(records == opt.trace_records,
          "replayed a different number of records than were generated");
  r.check(res.reads + res.writes == records - warm,
          "reads + writes != records replayed after warm-up");
  r.check(sim.directory_consistent(),
          "manager directory does not mirror the client caches");

  const coopcache::CacheCosts costs;
  const double reads = static_cast<double>(res.reads);
  const std::uint64_t hits =
      res.local_hits + res.remote_client_hits + res.server_mem_hits;
  // Simulated read latency under the study's per-level costs: each read
  // costs the level that served it.
  const std::pair<std::uint64_t, sim::Duration> levels[] = {
      {res.local_hits, costs.local_hit},
      {res.server_mem_hits, costs.server_mem},
      {res.remote_client_hits, costs.remote_client},
      {res.disk_reads, costs.server_disk}};
  const auto level_quantile = [&](double q) {
    const auto rank = static_cast<std::uint64_t>(q * (reads - 1));
    std::uint64_t seen = 0;
    for (const auto& [n, cost] : levels) {
      seen += n;
      if (seen > rank) return sim::to_ms(cost);
    }
    return sim::to_ms(costs.server_disk);
  };
  std::uint64_t met = 0;
  for (const auto& [n, cost] : levels) met += cost <= kReadSlo ? n : 0;
  r.sim["sim_p50_ms"] = {level_quantile(0.50), "ms"};
  r.sim["sim_p999_ms"] = {level_quantile(0.999), "ms"};
  r.sim["sim_mean_ms"] = {res.mean_read_response_ms(costs), "ms"};
  r.sim["sim_samples"] = {reads, "count"};
  r.sim["slo_attainment"] = {
      reads > 0 ? static_cast<double>(met) / reads : 1.0, "fraction"};
  r.sim["miss_rate"] = {res.miss_rate(), "fraction"};

  const std::pair<const char*, std::uint64_t> counters[] = {
      {"coop.local_hits", res.local_hits},
      {"coop.peer_hits", res.remote_client_hits},
      {"coop.server_hits", res.server_mem_hits},
      {"coop.disk_reads", res.disk_reads},
      {"replay.records", records},
  };
  Digest d;
  for (const auto& [name, v] : counters) {
    r.counts[name] = {static_cast<double>(v), "count"};
    d.add(v);
  }
  d.add(res.reads);
  d.add(res.writes);
  r.digest = d.value();
  r.counts["coop.hit_ratio"] = {
      reads > 0 ? static_cast<double>(hits) / reads : 0.0, "fraction"};
  r.counts["replay.mb"] = {
      static_cast<double>(std::filesystem::file_size(opt.trace_file)) / 1e6,
      "MB"};
  r.per_call["coop.access"] = {"coop.access_ns", static_cast<double>(records)};
  r.per_call["replay.next"] = {"replay.next_ns", static_cast<double>(records)};
  return r;
}

}  // namespace perfbench
