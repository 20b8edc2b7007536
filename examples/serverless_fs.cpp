// Serverless file service under fire: a 12-workstation xFS cluster serves
// a shared workload while a node dies mid-run.  Another client takes over
// its manager duty, in-flight operations retry through the takeover, and
// the software RAID keeps serving the dead node's stripe units from
// parity.  There is no server to page, replace, or mourn.
//
//   $ ./examples/serverless_fs
#include <cstdio>
#include <functional>
#include <memory>

#include "core/cluster.hpp"
#include "sim/random.hpp"

int main() {
  using namespace now;

  ClusterConfig cfg;
  cfg.workstations = 12;
  cfg.with_glunix = false;
  cfg.with_xfs = true;
  cfg.xfs.client_cache_blocks = 128;
  cfg.xfs.segment_blocks = 14;  // two full rows of an 8-member group
  Cluster c(cfg);

  std::printf("xFS: %u workstations, every one of them client + manager + "
              "storage server\n\n",
              c.size());

  // A steady shared workload: each op picks a client and a block; 30 %
  // writes.  Issued paced (one op per simulated 2 ms).
  sim::Pcg32 rng(3, 0x736c6673);
  auto ops_done = std::make_shared<int>(0);
  auto issue = std::make_shared<std::function<void(int)>>();
  auto& cl = c;
  *issue = [&cl, &rng, ops_done, issue](int remaining) {
    if (remaining == 0) {
      *issue = nullptr;
      return;
    }
    auto node = rng.next_below(12);
    if (!cl.node(node).alive()) node = (node + 1) % 12;
    const xfs::BlockId block = rng.next_below(2'000);
    auto cont = [&cl, ops_done, issue, remaining](bool) {
      ++*ops_done;
      cl.engine().schedule_in(2 * sim::kMillisecond, [issue, remaining] {
        if (*issue) (*issue)(remaining - 1);
      });
    };
    if (rng.bernoulli(0.3)) {
      cl.fs().write(node, block, cont);
    } else {
      cl.fs().read(node, block, cont);
    }
  };
  (*issue)(4'000);

  // Disaster strikes at t=3s: workstation 7 dies with cached state and a
  // slice of the manager map.
  c.engine().schedule_at(3 * sim::kSecond, [&] {
    std::printf("[%6.2fs] workstation 7 crashes (client + manager + "
                "storage member)\n",
                sim::to_sec(c.engine().now()));
    c.crash_node(7);
    // The membership layer appoints workstation 8 as the new manager for
    // 7's slice of the block space.
    c.fs().manager_takeover(7, 8, [&] {
      std::printf("[%6.2fs] workstation 8 rebuilt 7's directory from the "
                  "survivors - service continues\n",
                  sim::to_sec(c.engine().now()));
    });
  });

  c.run();

  const auto& s = c.fs().stats();
  std::printf("\n%d operations completed across the crash\n", *ops_done);
  std::printf("  local hits:          %llu\n",
              static_cast<unsigned long long>(s.local_hits));
  std::printf("  cooperative fetches: %llu (peer DRAM instead of disk)\n",
              static_cast<unsigned long long>(s.peer_fetches));
  std::printf("  log reads:           %llu (RAID-5, %s)\n",
              static_cast<unsigned long long>(s.log_reads),
              c.storage_degraded() ? "degraded mode" : "whole");
  std::printf("  segments flushed:    %llu (full-stripe writes: %llu)\n",
              static_cast<unsigned long long>(s.segments_flushed),
              static_cast<unsigned long long>(
                  c.storage_stats().full_stripe_writes));
  std::printf("  ops retried through the takeover: %llu\n",
              static_cast<unsigned long long>(s.op_retries));
  std::printf("  unflushed blocks lost with node 7: %llu (their last "
              "logged versions survive)\n",
              static_cast<unsigned long long>(s.lost_dirty_blocks));
  std::printf("\na central-server design loses the building when the "
              "server dies; xFS lost one\ntwelfth of its cache and kept "
              "serving.\n");
  return 0;
}
