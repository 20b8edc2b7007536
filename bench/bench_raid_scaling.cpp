// Software RAID over workstation disks: aggregate bandwidth scales with
// the member count; parity survives failures; any node can drive the
// array.  ("Redundant arrays of workstation disks" section.)
//
// The member-count sweep points are independent simulations and run in
// parallel (--jobs N); the availability demo at the end is a single
// serial scenario.
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "net/hierarchical.hpp"
#include "net/presets.hpp"
#include "proto/am.hpp"
#include "proto/nic_mux.hpp"
#include "proto/rpc.hpp"
#include "raid/raid.hpp"
#include "sim/engine.hpp"

namespace {

using namespace now;

struct Rig {
  explicit Rig(int n) {
    network = std::make_unique<net::HierarchicalNetwork>(engine,
                                                         net::atm_155mbps());
    mux = std::make_unique<proto::NicMux>(*network);
    am = std::make_unique<proto::AmLayer>(*mux, proto::AmParams{});
    rpc = std::make_unique<proto::RpcLayer>(*am);
    for (int i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<os::Node>(
          engine, static_cast<net::NodeId>(i), os::NodeParams{}));
      mux->attach_node(*nodes.back());
      rpc->bind(*nodes.back());
      raid::install_storage_service(*rpc, *nodes.back());
    }
  }
  std::vector<os::Node*> members(int first, int count) {
    std::vector<os::Node*> v;
    for (int i = first; i < first + count; ++i) v.push_back(nodes[i].get());
    return v;
  }
  sim::Engine engine;
  std::unique_ptr<net::HierarchicalNetwork> network;
  std::unique_ptr<proto::NicMux> mux;
  std::unique_ptr<proto::AmLayer> am;
  std::unique_ptr<proto::RpcLayer> rpc;
  std::vector<std::unique_ptr<os::Node>> nodes;
};

double sequential_mbps(int members, raid::Level level, bool write) {
  Rig rig(members + 1);  // node 0 drives, 1..members store
  raid::RaidParams rp;
  rp.level = level;
  raid::SoftwareRaid raid(*rig.rpc, rig.members(1, members), rp);
  const std::uint32_t total = 8 << 20;
  // Stripe-aligned chunks: writes land as whole rows (a real client, like
  // the xFS log, batches to full stripes on purpose).
  const std::uint32_t row_bytes =
      rp.stripe_unit *
      static_cast<std::uint32_t>(level == raid::Level::kRaid5
                                     ? members - 1
                                     : members);
  const std::uint32_t chunk = ((384u * 1024) / row_bytes + 1) * row_bytes;
  auto offset = std::make_shared<std::uint64_t>(0);
  sim::SimTime done_at = -1;
  auto step = std::make_shared<std::function<void()>>();
  *step = [&raid, offset, step, total, chunk, write, &rig, &done_at] {
    if (*offset >= total) {
      done_at = rig.engine.now();
      *step = nullptr;
      return;
    }
    const std::uint64_t off = *offset;
    *offset += chunk;
    if (write) {
      raid.write(0, off, chunk, [step] {
        if (*step) (*step)();
      });
    } else {
      raid.read(0, off, chunk, [step] {
        if (*step) (*step)();
      });
    }
  };
  (*step)();
  rig.engine.run();
  return static_cast<double>(total) / (1 << 20) / sim::to_sec(done_at);
}

struct ScalePoint {
  double raid0_read = 0;
  double raid0_write = 0;
  double raid5_write = 0;
};

}  // namespace

int main(int argc, char** argv) {
  now::bench::heading(
      "Software RAID over workstation disks - bandwidth scaling + "
      "availability",
      "'A Case for NOW', 'Redundant arrays of workstation disks'");
  now::bench::Sweep sweep(argc, argv, "bench/bench_raid_scaling");

  now::bench::row("single workstation disk media rate: 4.0 MB/s; ATM link "
                  "~19.4 MB/s");
  now::bench::row("");
  now::bench::row("%-10s %16s %16s %16s", "members", "RAID-0 read",
                  "RAID-0 write", "RAID-5 write");
  const std::vector<int> member_counts{2, 4, 8, 12};
  std::vector<std::string> names;
  for (const int m : member_counts) {
    names.push_back("members_" + std::to_string(m));
  }
  const auto points = sweep.run(names, [&](now::exp::RunContext& ctx) {
    const int m = member_counts[ctx.task_index];
    ScalePoint p;
    p.raid0_read = sequential_mbps(m, raid::Level::kRaid0, false);
    p.raid0_write = sequential_mbps(m, raid::Level::kRaid0, true);
    p.raid5_write =
        m >= 3 ? sequential_mbps(m, raid::Level::kRaid5, true) : 0.0;
    return p;
  });
  for (std::size_t i = 0; i < points.size(); ++i) {
    now::bench::row("%-10d %13.1f MB/s %13.1f MB/s %13.1f MB/s",
                    member_counts[i], points[i].raid0_read,
                    points[i].raid0_write, points[i].raid5_write);
  }
  now::bench::row("");
  now::bench::row("paper claim: striping across enough disks gives each "
                  "workstation disk bandwidth");
  now::bench::row("limited only by its network link; parallel programs "
                  "get the aggregate.");

  // Availability: degraded reads and reconstruction.
  Rig rig(6);
  raid::RaidParams rp;
  rp.level = raid::Level::kRaid5;
  raid::SoftwareRaid raid5(*rig.rpc, rig.members(1, 4), rp);
  rig.nodes[2]->crash();
  raid5.member_failed(2);
  sim::SimTime t0 = rig.engine.now();
  sim::SimTime read_done = -1;
  raid5.read(0, 0, 256 * 1024, [&] { read_done = rig.engine.now(); });
  rig.engine.run();
  now::bench::row("");
  now::bench::row("degraded 256 KB read with one member dead: %.1f ms "
                  "(reconstructed from parity)",
                  sim::to_ms(read_done - t0));
  t0 = rig.engine.now();
  sim::SimTime rebuilt_at = -1;
  raid5.reconstruct(2, *rig.nodes[5], [&] { rebuilt_at = rig.engine.now(); },
                    /*rebuild_bytes_per_member=*/16 << 20);
  rig.engine.run();
  now::bench::row("rebuilding 16 MB/member onto a spare workstation: "
                  "%.1f s; array whole again: %s",
                  sim::to_sec(rebuilt_at - t0),
                  raid5.degraded() ? "no" : "yes");
  now::bench::row("");
  now::bench::row("paper claim: no central RAID host to fail - any "
                  "workstation can take over control.");
  return 0;
}
