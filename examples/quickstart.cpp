// Quickstart: assemble a NOW, borrow an idle machine for a batch job, and
// use the serverless file system — the two faces of the paper's pitch in
// ~60 lines of user code.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "core/cluster.hpp"

int main() {
  using namespace now;

  // A small building: 8 workstations on switched ATM, GLUnix managing the
  // pool and xFS spread across everyone's disks.
  ClusterConfig cfg;
  cfg.workstations = 8;
  cfg.fabric = Fabric::kAtm;
  cfg.with_xfs = true;
  Cluster cluster(cfg);

  std::printf("NOW quickstart: %u workstations, switched ATM, GLUnix + xFS\n\n",
              cluster.size());

  // 1. Someone at workstation 1 runs a 2-minute compute job.  GLUnix finds
  //    an idle machine and runs it there.
  cluster.glunix().run_remote(
      120 * sim::kSecond, /*memory=*/32ull << 20, [&](net::NodeId where) {
        std::printf("[%7.1fs] batch job finished on workstation %u\n",
                    sim::to_sec(cluster.engine().now()), where);
      });

  // 2. Meanwhile workstation 2 writes a file; workstation 5 reads it back
  //    through the cooperative cache (no server anywhere).
  for (xfs::BlockId b = 0; b < 8; ++b) {
    cluster.fs().write(2, b, [](bool) {});
  }
  cluster.run_for(1 * sim::kSecond);
  int got = 0;
  for (xfs::BlockId b = 0; b < 8; ++b) {
    cluster.fs().read(5, b, [&](bool) { ++got; });
  }
  cluster.run_for(1 * sim::kSecond);
  std::printf("[%7.1fs] workstation 5 read %d blocks written by "
              "workstation 2 (%llu came from peer memory)\n",
              sim::to_sec(cluster.engine().now()), got,
              static_cast<unsigned long long>(
                  cluster.fs().stats().peer_fetches));

  // 3. The owner of the machine hosting the batch job comes back: GLUnix
  //    migrates the guest away within seconds.
  cluster.engine().schedule_at(30 * sim::kSecond, [&] {
    for (std::uint32_t i = 0; i < cluster.size(); ++i) {
      if (!cluster.node(i).cpu().idle()) {
        std::printf("[%7.1fs] owner returns to workstation %u - evicting "
                    "the guest\n",
                    sim::to_sec(cluster.engine().now()), i);
        cluster.node(i).user_activity();
        return;
      }
    }
  });
  // Keep the owner typing for a while so the machine stays off-limits.
  for (int k = 1; k < 60; ++k) {
    cluster.engine().schedule_at((30 + k) * sim::kSecond, [&] {
      for (std::uint32_t i = 0; i < cluster.size(); ++i) {
        if (!cluster.node(i).user_idle_for(2 * sim::kSecond)) {
          cluster.node(i).user_activity();
        }
      }
    });
  }

  cluster.run_until(10 * sim::kMinute);

  const auto& g = cluster.glunix().stats();
  std::printf("\nsummary: %llu guest launched, %llu completed, "
              "%llu migrations, %llu crash restarts\n",
              static_cast<unsigned long long>(g.launched),
              static_cast<unsigned long long>(g.completed),
              static_cast<unsigned long long>(g.migrations),
              static_cast<unsigned long long>(g.crash_restarts));
  std::printf("the pool did the work; nobody bought a supercomputer.\n");
  return 0;
}
