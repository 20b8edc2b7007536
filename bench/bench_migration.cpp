// Migration costs (text): with ATM + a parallel file system, 64 MB of
// memory state moves in under 4 seconds — and the save/restore design
// beats letting the user's working set page back in from a local disk.
#include "bench_util.hpp"
#include "core/cluster.hpp"
#include "glunix/migration.hpp"
#include "os/disk.hpp"
#include "sim/engine.hpp"

int main() {
  using namespace now;
  now::bench::heading(
      "Process migration and memory save/restore",
      "'A Case for NOW', GLUnix sociology section ('64 Mbytes of DRAM can "
      "be restored in under 4 seconds')");

  glunix::MigrationCostModel model;
  now::bench::row("%-14s %12s %12s %14s", "memory (MB)", "save (s)",
                  "restore (s)", "migrate (s)");
  for (const std::uint64_t mb : {8ull, 16ull, 32ull, 64ull, 128ull}) {
    const std::uint64_t bytes = mb << 20;
    now::bench::row("%-14llu %12.2f %12.2f %14.2f",
                    static_cast<unsigned long long>(mb),
                    sim::to_sec(model.save_time(bytes)),
                    sim::to_sec(model.restore_time(bytes)),
                    sim::to_sec(model.migrate_time(bytes)));
  }
  now::bench::row("");
  now::bench::row("paper claim: 64 MB restored in < 4 s -> reproduced: "
                  "%.2f s",
                  sim::to_sec(model.restore_time(64ull << 20)));

  // Ablation: explicit save/restore vs the naive policy of letting the
  // returning user's working set demand-page back from the local disk.
  sim::Engine eng;
  os::Disk disk(eng, os::DiskParams{});
  const std::uint64_t ws_bytes = 64ull << 20;
  const std::uint64_t pages = ws_bytes / 8192;
  const double page_in_sec =
      sim::to_sec(disk.service_time(8192, /*sequential=*/false)) *
      static_cast<double>(pages);
  now::bench::row("");
  now::bench::row("ablation - how long until the returning user has their "
                  "64 MB working set back:");
  now::bench::row("  explicit restore via network + PFS: %8.2f s",
                  sim::to_sec(model.restore_time(ws_bytes)));
  now::bench::row("  demand paging from local disk:      %8.2f s",
                  page_in_sec);
  now::bench::row("  (the paper's anecdote: users tapped keyboards to keep "
                  "their memory from being evicted)");

  // Gang migration: "while one process is migrating, the rest of the
  // parallel program is unlikely to make much progress."  Run a 4-wide
  // gang through GLUnix, disturb one rank's machine mid-run, and compare
  // wall time with the undisturbed run.
  auto run_gang = [](bool disturb) {
    ClusterConfig cfg;
    cfg.workstations = 8;
    Cluster c(cfg);
    sim::SimTime done_at = -1;
    c.glunix().run_parallel(4, 120 * sim::kSecond, 32ull << 20, [&] {
      done_at = c.engine().now();
      c.engine().stop();  // the answer is known; skip the idle tail
    });
    if (disturb) {
      c.engine().schedule_at(30 * sim::kSecond, [&c] {
        for (std::uint32_t i = 1; i < 8; ++i) {
          if (!c.node(i).cpu().idle()) {
            for (int k = 0; k < 90; ++k) {
              c.engine().schedule_in(k * sim::kSecond, [&c, i] {
                c.node(i).user_activity();
              });
            }
            return;
          }
        }
      });
    }
    c.run_until(30 * sim::kMinute);
    return sim::to_sec(done_at);
  };
  const double clean = run_gang(false);
  const double disturbed = run_gang(true);
  now::bench::row("");
  now::bench::row("gang of 4 x 120 s through GLUnix:");
  now::bench::row("  undisturbed:                        %8.1f s", clean);
  now::bench::row("  one owner returns mid-run:          %8.1f s  "
                  "(whole gang pauses for one 32 MB migration)",
                  disturbed);
  return 0;
}
