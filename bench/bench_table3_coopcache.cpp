// Table 3: the impact of cooperative caching — 42 workstations with 16 MB
// caches and a 128 MB server, trace-driven, plus the algorithm ablation
// from the underlying study (Dahlin et al., OSDI '94).
//
// The four policies replay the same trace independently, so they run as a
// parallel sweep (--jobs N) with byte-identical output to the serial run.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "coopcache/coopcache.hpp"
#include "replay/cursor.hpp"
#include "trace/fs_trace.hpp"

int main(int argc, char** argv) {
  using namespace now;
  now::bench::heading(
      "Table 3 - impact of cooperative caching",
      "'A Case for NOW', Table 3 (42 workstations, 16 MB/workstation, "
      "128 MB server; two-day Berkeley trace -> synthetic equivalent)");
  now::bench::Sweep sweep(argc, argv, "bench/bench_table3_coopcache");

  trace::FsWorkloadParams wp;
  wp.clients = 42;
  wp.accesses_per_client = 60'000;
  wp.shared_blocks = 12'288;   // ~96 MB of shared executables/fonts
  wp.private_blocks = 4'096;   // ~32 MB per-client working sets
  wp.zipf_private = 1.10;
  wp.shared_fraction = 0.35;
  const auto accesses = trace::generate_fs_trace(wp);

  now::bench::row("trace: %zu accesses across %u clients (40%% warm-up "
                  "excluded from stats)",
                  accesses.size(), wp.clients);
  now::bench::row("");
  now::bench::row("%-24s %12s %16s %10s %10s", "policy", "miss rate",
                  "read response", "local", "peer");

  const coopcache::CacheCosts costs;
  const std::vector<coopcache::Policy> policies{
      coopcache::Policy::kClientServer,
      coopcache::Policy::kGreedyForwarding,
      coopcache::Policy::kCentrallyCoordinated,
      coopcache::Policy::kNChance};
  std::vector<std::string> names;
  for (const auto policy : policies) {
    names.push_back(coopcache::policy_name(policy));
  }
  const auto results = sweep.run(
      names, [&](now::exp::RunContext& ctx) {
        coopcache::CoopCacheConfig cfg;
        cfg.clients = wp.clients;
        cfg.client_cache_blocks = 2'048;   // 16 MB at 8 KB blocks
        cfg.server_cache_blocks = 16'384;  // 128 MB
        cfg.policy = policies[ctx.task_index];
        cfg.seed = ctx.seed;
        coopcache::CoopCacheSim sim(cfg);
        const std::size_t warm = accesses.size() * 2 / 5;
        for (std::size_t i = 0; i < accesses.size(); ++i) {
          if (i == warm) sim.reset_stats();
          sim.access(accesses[i].client, accesses[i].block,
                     accesses[i].is_write);
        }
        return sim.results();
      });

  for (std::size_t i = 0; i < policies.size(); ++i) {
    const auto& r = results[i];
    now::bench::row("%-24s %11.1f%% %13.2f ms %9.1f%% %9.1f%%",
                    coopcache::policy_name(policies[i]), 100 * r.miss_rate(),
                    r.mean_read_response_ms(costs),
                    100 * r.local_hit_rate(),
                    100 * static_cast<double>(r.remote_client_hits) /
                        static_cast<double>(r.reads));
  }
  now::bench::row("");
  now::bench::row("paper Table 3:  client-server       16%% miss, 2.8 ms");
  now::bench::row("                cooperative caching  8%% miss, 1.6 ms");
  now::bench::row("paper claim: cooperative caching halves disk reads and "
                  "improves read performance ~80%%");

  // --- Building scale ----------------------------------------------------
  // The study stopped at 42 clients (one server's worth); a building-wide
  // NOW has a thousand, behind 32-client racks and an oversubscribed
  // spine.  Same replay, scaled: the shared working set grows with the
  // client count (so the aggregate cache stays honest), the manager
  // prefers same-rack holders, and a cross-rack peer fetch pays two extra
  // switch crossings (+800 us on the study's ATM-era numbers).  Total
  // trace size is held constant so every scale costs the same to run.
  now::bench::row("");
  now::bench::row("building scale: 32-client racks; cross-rack peer fetch "
                  "2,050 us vs 1,250 us in-rack; --nodes caps the axis");
  now::bench::row("");
  now::bench::row("%-9s %-18s %10s %14s %8s %8s %14s", "clients", "policy",
                  "miss rate", "read response", "local", "peer",
                  "in-rack peers");

  coopcache::CacheCosts bcosts;
  bcosts.remote_client_cross_rack = sim::from_us(2'050);
  const std::vector<std::uint32_t> scales =
      now::bench::cap_axis({42, 256, 1024}, now::bench::parse_nodes(argc, argv));
  const std::vector<coopcache::Policy> bpolicies{
      coopcache::Policy::kClientServer, coopcache::Policy::kNChance};
  struct BPoint {
    std::uint32_t clients;
    coopcache::Policy policy;
  };
  std::vector<BPoint> bpoints;
  std::vector<std::string> bnames;
  for (const std::uint32_t n : scales) {
    for (const auto policy : bpolicies) {
      bpoints.push_back({n, policy});
      bnames.push_back("clients_" + std::to_string(n) + "_" +
                       coopcache::policy_name(policy));
    }
  }
  // Later sweep.run calls continue the global task-index space (so seeds
  // stay unique); subtract the first section's points to index bpoints.
  const std::size_t first_section = names.size();
  const auto bresults = sweep.run(
      bnames, [&](now::exp::RunContext& ctx) {
        const BPoint& p = bpoints[ctx.task_index - first_section];
        trace::FsWorkloadParams bwp = wp;
        bwp.clients = p.clients;
        bwp.accesses_per_client =
            std::max<std::uint32_t>(wp.accesses_per_client * 42 / p.clients,
                                    2'000);
        bwp.shared_blocks = wp.shared_blocks * p.clients / 42;
        const auto trace = trace::generate_fs_trace(bwp);
        coopcache::CoopCacheConfig cfg;
        cfg.clients = p.clients;
        cfg.client_cache_blocks = 2'048;
        cfg.server_cache_blocks = 16'384;
        cfg.policy = p.policy;
        cfg.rack_size = 32;
        cfg.costs = bcosts;
        cfg.seed = ctx.seed;
        coopcache::CoopCacheSim sim(cfg);
        const std::size_t warm = trace.size() * 2 / 5;
        for (std::size_t i = 0; i < trace.size(); ++i) {
          if (i == warm) sim.reset_stats();
          sim.access(trace[i].client, trace[i].block, trace[i].is_write);
        }
        return sim.results();
      });

  for (std::size_t i = 0; i < bpoints.size(); ++i) {
    const auto& r = bresults[i];
    const double peers = static_cast<double>(r.remote_client_hits);
    now::bench::row("%-9u %-18s %9.1f%% %11.2f ms %7.1f%% %7.1f%% %13.1f%%",
                    bpoints[i].clients,
                    coopcache::policy_name(bpoints[i].policy),
                    100 * r.miss_rate(), r.mean_read_response_ms(bcosts),
                    100 * r.local_hit_rate(),
                    100 * peers / static_cast<double>(r.reads),
                    peers > 0 ? 100 * static_cast<double>(
                                          r.rack_local_peer_hits) /
                                    peers
                              : 0.0);
  }
  now::bench::row("");
  now::bench::row("cooperation keeps paying at building scale: the "
                  "aggregate cache grows with the building while the "
                  "server's memory does not, and rack-preferring "
                  "forwarding keeps part of the peer traffic off the "
                  "oversubscribed spine.");

  // --- Recorded-trace replay (--trace <path>) ----------------------------
  // The study itself was trace-driven; this section swaps the synthetic
  // generator for a recorded stream (native fs or nfsdump-style text) and
  // replays it through the same four policies.  Each sweep point opens its
  // own streaming cursor — O(window) memory however large the recording —
  // so the section parallelizes across --jobs like the synthetic one.
  const std::string trace_path = now::bench::parse_trace(argc, argv);
  if (!trace_path.empty()) {
    const auto ts = replay::summarize(trace_path);
    const std::uint32_t tclients = std::max<std::uint32_t>(ts.clients, 1);
    now::bench::row("");
    now::bench::row("replayed trace: %s", trace_path.c_str());
    now::bench::row("  format %s, %llu records, %u clients, %.1f s of "
                    "recorded time (40%% warm-up excluded from stats)",
                    replay::to_string(ts.format),
                    static_cast<unsigned long long>(ts.records), tclients,
                    sim::to_sec(ts.last_at - ts.first_at));
    now::bench::row("");
    now::bench::row("%-24s %12s %16s %10s %10s", "policy", "miss rate",
                    "read response", "local", "peer");
    std::vector<std::string> rnames;
    for (const auto policy : policies) {
      rnames.push_back(std::string("replay_") +
                       coopcache::policy_name(policy));
    }
    const std::size_t replay_first = first_section + bnames.size();
    const auto rresults = sweep.run(
        rnames, [&](now::exp::RunContext& ctx) {
          coopcache::CoopCacheConfig cfg;
          cfg.clients = tclients;
          cfg.client_cache_blocks = 2'048;
          cfg.server_cache_blocks = 16'384;
          cfg.policy = policies[ctx.task_index - replay_first];
          cfg.seed = ctx.seed;
          coopcache::CoopCacheSim sim(cfg);
          const std::uint64_t warm = ts.records * 2 / 5;
          auto cur = replay::open_trace(trace_path);
          std::uint64_t i = 0;
          while (auto a = cur->next()) {
            if (i == warm) sim.reset_stats();
            sim.access(a->client, a->block, a->is_write);
            ++i;
          }
          return sim.results();
        });
    for (std::size_t i = 0; i < policies.size(); ++i) {
      const auto& r = rresults[i];
      now::bench::row("%-24s %11.1f%% %13.2f ms %9.1f%% %9.1f%%",
                      coopcache::policy_name(policies[i]),
                      100 * r.miss_rate(), r.mean_read_response_ms(costs),
                      100 * r.local_hit_rate(),
                      r.reads > 0
                          ? 100 * static_cast<double>(r.remote_client_hits) /
                                static_cast<double>(r.reads)
                          : 0.0);
    }
    now::bench::row("");
    now::bench::row("same ranking on the recorded stream: cooperation's win "
                    "comes from the aggregate cache, not from the synthetic "
                    "generator's shape.");
  }
  return 0;
}
