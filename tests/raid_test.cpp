// Tests for software RAID over workstation disks.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/hierarchical.hpp"
#include "net/presets.hpp"
#include "proto/am.hpp"
#include "proto/nic_mux.hpp"
#include "proto/rpc.hpp"
#include "raid/raid.hpp"
#include "raid/stripe_groups.hpp"
#include "sim/engine.hpp"

namespace now::raid {
namespace {

using namespace now::sim::literals;

struct Rig {
  explicit Rig(int n) {
    network = std::make_unique<net::HierarchicalNetwork>(engine,
                                                         net::myrinet());
    mux = std::make_unique<proto::NicMux>(*network);
    am = std::make_unique<proto::AmLayer>(*mux, proto::AmParams{});
    rpc = std::make_unique<proto::RpcLayer>(*am);
    for (int i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<os::Node>(
          engine, static_cast<net::NodeId>(i), os::NodeParams{}));
      mux->attach_node(*nodes.back());
      rpc->bind(*nodes.back());
      install_storage_service(*rpc, *nodes.back());
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

TEST(Raid, Raid0StripesAcrossAllMembers) {
  Rig rig(5);  // node 0 = client, 1-4 = members
  RaidParams p;
  p.level = Level::kRaid0;
  p.stripe_unit = 32 * 1024;
  SoftwareRaid raid(*rig.rpc, rig.members(1, 4), p);
  bool done = false;
  raid.read(0, 0, 4 * 32 * 1024, [&] { done = true; });
  rig.engine.run();
  EXPECT_TRUE(done);
  // Each member served exactly one stripe unit.
  for (int i = 1; i <= 4; ++i) {
    EXPECT_EQ(rig.nodes[i]->disk().reads(), 1u) << "member " << i;
  }
}

TEST(Raid, Raid0ParallelReadBeatsSingleDisk) {
  const std::uint32_t total = 1 << 20;  // 1 MB
  sim::Duration striped = 0, single = 0;
  {
    Rig rig(5);
    RaidParams p;
    p.level = Level::kRaid0;
    SoftwareRaid raid(*rig.rpc, rig.members(1, 4), p);
    const sim::SimTime t0 = rig.engine.now();
    sim::SimTime t1 = 0;
    raid.read(0, 0, total, [&] { t1 = rig.engine.now(); });
    rig.engine.run();
    striped = t1 - t0;
  }
  {
    Rig rig(2);
    sim::SimTime t1 = 0;
    // One remote disk serving the same megabyte.
    auto state = std::make_shared<std::uint32_t>(0);
    std::function<void()> next = [&rig, state, &t1, total,
                                  &next]() mutable {
      if (*state >= total) {
        t1 = rig.engine.now();
        return;
      }
      *state += 32 * 1024;
      rig.nodes[1]->disk().read(*state, 32 * 1024, next);
    };
    next();
    rig.engine.run();
    single = t1;
  }
  EXPECT_LT(striped, single);
  EXPECT_GT(static_cast<double>(single) / static_cast<double>(striped), 2.0);
}

TEST(Raid, Raid5SmallWriteDoesReadModifyWrite) {
  Rig rig(5);
  RaidParams p;
  p.level = Level::kRaid5;
  SoftwareRaid raid(*rig.rpc, rig.members(1, 4), p);
  bool done = false;
  raid.write(0, 0, 8 * 1024, [&] { done = true; });  // partial stripe
  rig.engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(raid.stats().parity_updates, 1u);
  EXPECT_EQ(raid.stats().full_stripe_writes, 0u);
  // 2 reads + 2 writes across the member disks.
  std::uint64_t reads = 0, writes = 0;
  for (int i = 1; i <= 4; ++i) {
    reads += rig.nodes[i]->disk().reads();
    writes += rig.nodes[i]->disk().writes();
  }
  EXPECT_EQ(reads, 2u);
  EXPECT_EQ(writes, 2u);
}

TEST(Raid, Raid5FullStripeWriteSkipsReads) {
  Rig rig(5);
  RaidParams p;
  p.level = Level::kRaid5;
  p.stripe_unit = 32 * 1024;
  SoftwareRaid raid(*rig.rpc, rig.members(1, 4), p);
  bool done = false;
  // 3 data units (4 members - 1 parity) = one full row.
  raid.write(0, 0, 3 * 32 * 1024, [&] { done = true; });
  rig.engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(raid.stats().full_stripe_writes, 3u);  // 3 data targets
  std::uint64_t reads = 0, writes = 0;
  for (int i = 1; i <= 4; ++i) {
    reads += rig.nodes[i]->disk().reads();
    writes += rig.nodes[i]->disk().writes();
  }
  EXPECT_EQ(reads, 0u);
  EXPECT_EQ(writes, 4u);  // 3 data + 1 parity
}

TEST(Raid, Raid5DegradedReadReconstructs) {
  Rig rig(5);
  RaidParams p;
  p.level = Level::kRaid5;
  p.stripe_unit = 32 * 1024;
  SoftwareRaid raid(*rig.rpc, rig.members(1, 4), p);
  // Row 0: parity on member 0 (node 1); data on members 1,2,3.
  rig.nodes[2]->crash();
  raid.member_failed(2);
  bool done = false;
  raid.read(0, 0, 32 * 1024, [&] { done = true; });  // unit on member 1
  rig.engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(raid.stats().degraded_reads, 1u);
  // Survivors (nodes 1, 3, 4) each served a reconstruction read.
  EXPECT_EQ(rig.nodes[1]->disk().reads(), 1u);
  EXPECT_EQ(rig.nodes[3]->disk().reads(), 1u);
  EXPECT_EQ(rig.nodes[4]->disk().reads(), 1u);
}

TEST(Raid, Raid5DegradedWriteStillCompletes) {
  Rig rig(5);
  RaidParams p;
  p.level = Level::kRaid5;
  SoftwareRaid raid(*rig.rpc, rig.members(1, 4), p);
  rig.nodes[2]->crash();
  raid.member_failed(2);
  bool done = false;
  raid.write(0, 0, 8 * 1024, [&] { done = true; });
  rig.engine.run();
  EXPECT_TRUE(done);
}

TEST(Raid, ReconstructionRestoresFullOperation) {
  Rig rig(6);  // nodes 1-4 members, node 5 spare
  RaidParams p;
  p.level = Level::kRaid5;
  p.stripe_unit = 32 * 1024;
  SoftwareRaid raid(*rig.rpc, rig.members(1, 4), p);
  rig.nodes[2]->crash();
  raid.member_failed(2);
  EXPECT_TRUE(raid.degraded());
  bool rebuilt = false;
  raid.reconstruct(2, *rig.nodes[5], [&] { rebuilt = true; },
                   /*rebuild_bytes_per_member=*/512 * 1024);
  rig.engine.run();
  EXPECT_TRUE(rebuilt);
  EXPECT_FALSE(raid.degraded());
  EXPECT_GT(rig.nodes[5]->disk().writes(), 0u);  // spare holds rebuilt data
  // Reads of the replaced member now hit the spare, not reconstruction.
  const auto degraded_before = raid.stats().degraded_reads;
  bool done = false;
  raid.read(0, 0, 32 * 1024, [&] { done = true; });
  rig.engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(raid.stats().degraded_reads, degraded_before);
}

TEST(StripeGroups, SegmentSizedWritesAreFullStripePerGroup) {
  Rig rig(13);  // node 0 drives, 1-12 = three groups of four
  RaidParams p;
  p.level = Level::kRaid5;
  p.stripe_unit = 8192;
  const std::uint64_t band = 3 * 8192;  // one row of a 4-member group
  StripeGroupArray groups(*rig.rpc, rig.members(1, 12), p, 4, band);
  EXPECT_EQ(groups.group_count(), 3u);
  int done = 0;
  // Nine band-aligned, band-sized writes rotate across the groups.
  for (std::uint64_t k = 0; k < 9; ++k) {
    groups.write(0, k * band, static_cast<std::uint32_t>(band),
                 [&] { ++done; });
  }
  rig.engine.run();
  EXPECT_EQ(done, 9);
  const RaidStats s = groups.stats();
  EXPECT_GT(s.full_stripe_writes, 0u);
  EXPECT_EQ(s.parity_updates, 0u);  // no read-modify-write anywhere
  // Load was spread: every group wrote something.
  for (std::size_t g = 0; g < 3; ++g) {
    EXPECT_GT(groups.group(g).stats().writes, 0u) << g;
  }
}

TEST(StripeGroups, ReadBackSpanningBandsCompletes) {
  Rig rig(9);
  RaidParams p;
  p.level = Level::kRaid5;
  p.stripe_unit = 8192;
  StripeGroupArray groups(*rig.rpc, rig.members(1, 8), p, 4,
                          /*band_bytes=*/3 * 8192);
  bool done = false;
  // A range crossing several bands (and therefore several groups).
  groups.write(0, 0, 10 * 8192, [&] { done = true; });
  rig.engine.run();
  EXPECT_TRUE(done);
  done = false;
  groups.read(0, 8192, 8 * 8192, [&] { done = true; });
  rig.engine.run();
  EXPECT_TRUE(done);
}

TEST(StripeGroups, FailureDegradesOneGroupOnly) {
  Rig rig(9);
  RaidParams p;
  p.level = Level::kRaid5;
  StripeGroupArray groups(*rig.rpc, rig.members(1, 8), p, 4,
                          /*band_bytes=*/3 * 32 * 1024);
  rig.nodes[2]->crash();   // a member of group 0
  groups.member_failed(2);
  EXPECT_TRUE(groups.degraded());
  EXPECT_TRUE(groups.group(0).degraded());
  EXPECT_FALSE(groups.group(1).degraded());
  // Both groups still serve reads (group 0 via reconstruction).
  int done = 0;
  groups.read(0, 0, 32 * 1024, [&] { ++done; });                  // group 0
  groups.read(0, 3 * 32 * 1024, 32 * 1024, [&] { ++done; });      // group 1
  rig.engine.run();
  EXPECT_EQ(done, 2);
  EXPECT_GT(groups.group(0).stats().degraded_reads, 0u);
}

TEST(Raid, ThereIsNoCentralHostToLose) {
  // The paper: "if one workstation in the NOW crashes, any other can take
  // its place in controlling the RAID."  Drive the array from two
  // different clients; both succeed.
  Rig rig(6);
  RaidParams p;
  p.level = Level::kRaid5;
  SoftwareRaid raid(*rig.rpc, rig.members(1, 4), p);
  bool a = false, b = false;
  raid.read(0, 0, 64 * 1024, [&] { a = true; });
  raid.read(5, 0, 64 * 1024, [&] { b = true; });
  rig.engine.run();
  EXPECT_TRUE(a);
  EXPECT_TRUE(b);
}

}  // namespace
}  // namespace now::raid
