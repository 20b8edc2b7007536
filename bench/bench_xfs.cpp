// xFS end-to-end: where reads are served (local / cooperative peer / log),
// write-behind segment flushing, and serverless recovery timings.
#include <functional>
#include <memory>

#include "bench_util.hpp"
#include "core/cluster.hpp"
#include "sim/random.hpp"

namespace {

using namespace now;

}  // namespace

int main() {
  now::bench::heading(
      "xFS - serverless network file service",
      "'A Case for NOW', 'xFS: serverless network file service'");

  ClusterConfig cfg;
  cfg.workstations = 16;
  cfg.with_glunix = false;
  cfg.with_xfs = true;
  cfg.xfs.client_cache_blocks = 64;  // small caches force write-behind
  // Stripe groups of 8 (the default): 7 data units per row, so 14-block
  // segments land as exactly two full-stripe rows.
  cfg.xfs.segment_blocks = 14;
  Cluster c(cfg);

  // A shared workload: every node writes its own files, everyone reads a
  // mix of its own and others' blocks.
  sim::Pcg32 rng(7, 0x78667362);
  const int kOps = 8'000;
  auto ops_done = std::make_shared<int>(0);
  auto issue = std::make_shared<std::function<void(int)>>();
  *issue = [&c, &rng, ops_done, issue](int remaining) {
    if (remaining == 0) {
      *issue = nullptr;
      return;
    }
    const auto node = rng.next_below(16);
    const bool write = rng.bernoulli(0.35);
    // Most traffic goes to a node's own range; some crosses nodes.
    const auto owner = rng.bernoulli(0.55) ? node : rng.next_below(16);
    const xfs::BlockId block = owner * 1'000 + rng.next_below(160);
    auto cont = [ops_done, issue, remaining](bool) {
      ++*ops_done;
      if (*issue) (*issue)(remaining - 1);
    };
    if (write) {
      c.fs().write(node, block, cont);
    } else {
      c.fs().read(node, block, cont);
    }
  };
  const sim::SimTime t0 = c.engine().now();
  (*issue)(kOps);
  c.run();
  // Commit all write-behind state so the log sees real segment traffic.
  for (std::uint32_t n = 0; n < 16; ++n) {
    c.fs().sync(n, [] {});
  }
  c.run();
  const double elapsed = sim::to_sec(c.engine().now() - t0);

  const auto& s = c.fs().stats();
  now::bench::row("%d sequential ops in %.2f simulated seconds", *ops_done,
                  elapsed);
  now::bench::row("latency: reads mean %.2f ms (max %.1f), writes mean "
                  "%.2f ms (max %.1f)",
                  s.read_latency_us.mean() / 1000.0,
                  s.read_latency_us.max() / 1000.0,
                  s.write_latency_us.mean() / 1000.0,
                  s.write_latency_us.max() / 1000.0);
  now::bench::row("");
  now::bench::row("where reads were served:");
  const double reads = static_cast<double>(s.reads);
  now::bench::row("  local cache:        %6.1f%%",
                  100 * s.local_hits / (reads + s.writes));
  now::bench::row("  peer memory (coop): %6llu fetches",
                  static_cast<unsigned long long>(s.peer_fetches));
  now::bench::row("  log (RAID disks):   %6llu reads",
                  static_cast<unsigned long long>(s.log_reads));
  now::bench::row("  zero fill (new):    %6llu",
                  static_cast<unsigned long long>(s.zero_fills));
  now::bench::row("write-back machinery: %llu invalidations, %llu "
                  "ownership transfers, %llu segments flushed",
                  static_cast<unsigned long long>(s.invalidations),
                  static_cast<unsigned long long>(s.ownership_transfers),
                  static_cast<unsigned long long>(s.segments_flushed));
  now::bench::row("RAID: %llu full-stripe writes vs %llu "
                  "read-modify-writes (log batching wins)",
                  static_cast<unsigned long long>(
                      c.storage_stats().full_stripe_writes),
                  static_cast<unsigned long long>(
                      c.storage_stats().parity_updates));

  // Serverless availability: kill a node, take over its manager duty.
  const sim::SimTime t1 = c.engine().now();
  c.crash_node(5);
  sim::SimTime recovered_at = -1;
  c.fs().manager_takeover(5, 6, [&] { recovered_at = c.engine().now(); });
  c.run();
  now::bench::row("");
  now::bench::row("node 5 crashed: manager takeover + directory rebuild "
                  "took %.1f ms",
                  sim::to_ms(recovered_at - t1));
  now::bench::row("unflushed dirty blocks lost with the node: %llu "
                  "(readers fall back to the last logged version)",
                  static_cast<unsigned long long>(
                      c.fs().stats().lost_dirty_blocks));

  // Cleaner.
  sim::SimTime cleaned_at = -1;
  const sim::SimTime t2 = c.engine().now();
  std::uint32_t cleaned = 0;
  c.fs().clean(0, [&](std::uint32_t n) {
    cleaned = n;
    cleaned_at = c.engine().now();
  });
  c.run();
  now::bench::row("log cleaner: compacted %u segments in %.1f ms", cleaned,
                  cleaned_at >= t2 ? sim::to_ms(cleaned_at - t2) : 0.0);
  now::bench::row("");
  now::bench::row("paper claims: no central server bottleneck or single "
                  "point of failure; any client");
  now::bench::row("can take over for any failed client; storage is a "
                  "software RAID in the log.");
  return 0;
}
