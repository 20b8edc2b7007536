// Unit tests for disk, virtual memory, and node models.
#include <gtest/gtest.h>

#include <vector>

#include "os/disk.hpp"
#include "os/node.hpp"
#include "os/vm.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace now::os {
namespace {

using namespace now::sim::literals;
using sim::Engine;

TEST(Disk, Table2ServiceTimeFor8K) {
  Engine eng;
  Disk d(eng, DiskParams{});
  // Table 2: an 8 KB disk access costs 14,800 us.
  EXPECT_NEAR(sim::to_us(d.service_time(8192, /*sequential=*/false)),
              14'800, 100);
}

TEST(Disk, SequentialAccessSkipsPositioning) {
  Engine eng;
  Disk d(eng, DiskParams{});
  const auto rnd = d.service_time(8192, false);
  const auto seq = d.service_time(8192, true);
  EXPECT_EQ(rnd - seq, kDiskPositioning);
}

TEST(Disk, CompletionCallbackAtServiceTime) {
  Engine eng;
  Disk d(eng, DiskParams{});
  sim::SimTime done_at = -1;
  d.read(0, 8192, [&] { done_at = eng.now(); });
  eng.run();
  EXPECT_EQ(done_at, d.service_time(8192, false));
  EXPECT_EQ(d.reads(), 1u);
}

TEST(Disk, FifoQueueingSerializes) {
  Engine eng;
  Disk d(eng, DiskParams{});
  std::vector<sim::SimTime> done;
  // Non-contiguous offsets: every access pays positioning.
  d.read(0, 8192, [&] { done.push_back(eng.now()); });
  d.read(1 << 20, 8192, [&] { done.push_back(eng.now()); });
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[1], 2 * done[0]);
}

TEST(Disk, BackToBackSequentialRunsAtMediaRate) {
  Engine eng;
  Disk d(eng, DiskParams{});
  sim::SimTime done_at = -1;
  d.read(0, 8192, [] {});
  d.read(8192, 8192, [&] { done_at = eng.now(); });  // head already there
  eng.run();
  const auto expect =
      d.service_time(8192, false) + d.service_time(8192, true);
  EXPECT_EQ(done_at, expect);
}

TEST(Disk, WritesCounted) {
  Engine eng;
  Disk d(eng, DiskParams{});
  d.write(0, 4096, [] {});
  d.write(123456, 4096, [] {});
  eng.run();
  EXPECT_EQ(d.writes(), 2u);
  EXPECT_EQ(d.reads(), 0u);
}

TEST(Disk, ElevatorBeatsFifoOnDeepRandomQueue) {
  // The same 32 scattered reads, FIFO vs SCAN, with distance-based seeks:
  // the elevator's sweep order cuts total positioning.
  auto run = [](DiskSched sched) {
    Engine eng;
    DiskParams p;
    p.scheduler = sched;
    p.distance_seek = true;
    Disk d(eng, p);
    sim::Pcg32 rng(5);
    sim::SimTime done_at = 0;
    for (int i = 0; i < 32; ++i) {
      const std::uint64_t off = (rng.next_below(100'000)) * 8192ull;
      d.read(off, 8192, [&] { done_at = eng.now(); });
    }
    eng.run();
    return done_at;
  };
  const auto fifo = run(DiskSched::kFifo);
  const auto scan = run(DiskSched::kElevator);
  EXPECT_LT(scan, fifo);
  EXPECT_LT(static_cast<double>(scan) / static_cast<double>(fifo), 0.85);
}

TEST(Disk, ElevatorServesEveryRequest) {
  Engine eng;
  DiskParams p;
  p.scheduler = DiskSched::kElevator;
  Disk d(eng, p);
  int done = 0;
  for (int i = 0; i < 16; ++i) {
    d.read((15 - i) * 1'000'000ull, 4096, [&] { ++done; });
  }
  eng.run();
  EXPECT_EQ(done, 16);
  EXPECT_EQ(d.reads(), 16u);
}

TEST(Disk, DistanceSeekScalesWithDistance) {
  Engine eng;
  DiskParams p;
  p.distance_seek = true;
  Disk d(eng, p);
  const auto near = d.positioning_time(1 << 20);
  const auto far = d.positioning_time(800ull << 20);
  EXPECT_LT(near, far);
  EXPECT_GE(near, kDiskMinPositioning);
  EXPECT_LE(far, kDiskPositioning);
}

TEST(Disk, FlatSeekIgnoresDistance) {
  Engine eng;
  Disk d(eng, DiskParams{});
  EXPECT_EQ(d.positioning_time(1), d.positioning_time(1ull << 30));
}

// A pager that completes after a fixed delay and counts traffic.
class FakePager final : public Pager {
 public:
  FakePager(Engine& eng, sim::Duration delay) : eng_(eng), delay_(delay) {}
  void page_in(std::uint64_t, std::function<void()> done) override {
    ++ins;
    eng_.schedule_in(delay_, std::move(done));
  }
  void page_out(std::uint64_t, std::function<void()> done) override {
    ++outs;
    eng_.schedule_in(delay_, std::move(done));
  }
  int ins = 0;
  int outs = 0;

 private:
  Engine& eng_;
  sim::Duration delay_;
};

TEST(Vm, ColdPagesFaultWarmPagesHit) {
  Engine eng;
  FakePager pager(eng, 1_ms);
  AddressSpace as(eng, /*frames=*/4, /*page_bytes=*/8192, pager);
  int completions = 0;
  as.access(1, false, [&] { ++completions; });
  eng.run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(as.stats().faults, 1u);
  as.access(1, false, [&] { ++completions; });
  EXPECT_EQ(completions, 2);  // synchronous hit
  EXPECT_EQ(as.stats().hits, 1u);
}

TEST(Vm, LruEvictsColdestPage) {
  Engine eng;
  FakePager pager(eng, 1_ms);
  AddressSpace as(eng, 2, 8192, pager);
  as.access(1, false, [] {});
  eng.run();
  as.access(2, false, [] {});
  eng.run();
  as.reference(1, false);  // 1 becomes MRU, 2 is now coldest
  as.access(3, false, [] {});
  eng.run();
  EXPECT_TRUE(as.resident(1));
  EXPECT_FALSE(as.resident(2));
  EXPECT_TRUE(as.resident(3));
  EXPECT_EQ(as.stats().evictions, 1u);
}

TEST(Vm, DirtyVictimIsWrittenBack) {
  Engine eng;
  FakePager pager(eng, 1_ms);
  AddressSpace as(eng, 1, 8192, pager);
  as.access(1, /*write=*/true, [] {});
  eng.run();
  as.access(2, false, [] {});
  eng.run();
  EXPECT_EQ(pager.outs, 1);  // dirty page 1 flushed
  EXPECT_EQ(as.stats().writebacks, 1u);
}

TEST(Vm, CleanVictimIsDropped) {
  Engine eng;
  FakePager pager(eng, 1_ms);
  AddressSpace as(eng, 1, 8192, pager);
  as.access(1, /*write=*/false, [] {});
  eng.run();
  as.access(2, false, [] {});
  eng.run();
  EXPECT_EQ(pager.outs, 0);
  EXPECT_EQ(as.stats().writebacks, 0u);
}

TEST(Vm, ConcurrentFaultsOnSamePageCoalesce) {
  Engine eng;
  FakePager pager(eng, 1_ms);
  AddressSpace as(eng, 4, 8192, pager);
  int completions = 0;
  as.fault(7, false, [&] { ++completions; });
  as.fault(7, false, [&] { ++completions; });
  eng.run();
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(pager.ins, 1);  // one fetch served both
}

TEST(Vm, FaultCostIsPagerLatency) {
  Engine eng;
  FakePager pager(eng, 15_ms);
  AddressSpace as(eng, 2, 8192, pager);
  sim::SimTime done_at = -1;
  as.access(9, false, [&] { done_at = eng.now(); });
  eng.run();
  EXPECT_EQ(done_at, 15_ms);
}

TEST(Vm, DiscardAllEmptiesResidentSet) {
  Engine eng;
  FakePager pager(eng, 1_ms);
  AddressSpace as(eng, 8, 8192, pager);
  for (std::uint64_t p = 0; p < 5; ++p) as.access(p, true, [] {});
  eng.run();
  EXPECT_EQ(as.resident_count(), 5u);
  as.discard_all();
  EXPECT_EQ(as.resident_count(), 0u);
}

TEST(Node, IdleDetectionUsesActivityTimestamp) {
  Engine eng;
  Node n(eng, 0, NodeParams{});
  // A node that has never seen input counts as idle.
  EXPECT_TRUE(n.user_idle_for(1_min));
  eng.schedule_at(10 * sim::kSecond, [&] { n.user_activity(); });
  eng.run();
  eng.run_until(40 * sim::kSecond);
  EXPECT_FALSE(n.user_idle_for(1_min));
  eng.run_until(71 * sim::kSecond);
  EXPECT_TRUE(n.user_idle_for(1_min));
}

TEST(Node, DramReservationRespectsCapacity) {
  Engine eng;
  NodeParams p;
  p.dram_bytes = 64ull << 20;
  Node n(eng, 0, p);
  EXPECT_TRUE(n.reserve_dram(60ull << 20));
  EXPECT_FALSE(n.reserve_dram(8ull << 20));  // would overcommit
  EXPECT_EQ(n.dram_free(), 4ull << 20);
  n.release_dram(30ull << 20);
  EXPECT_TRUE(n.reserve_dram(8ull << 20));
}

TEST(Node, CopyCostMatchesTable2) {
  Engine eng;
  Node n(eng, 0, NodeParams{});
  // Table 2: 250 us of memory-copy time per 8 KB.
  EXPECT_NEAR(sim::to_us(n.copy_cost(8192)), 250, 1);
}

TEST(Node, CrashKillsProcessesAndMemory) {
  Engine eng;
  Node n(eng, 0, NodeParams{});
  bool finished = false;
  const ProcessId pid = n.cpu().spawn("p", SchedClass::kBatch, [&] {
    n.cpu().compute(pid, 1_s, [&] {
      finished = true;
      n.cpu().exit(pid);
    });
  });
  n.reserve_dram(1 << 20);
  eng.schedule_at(100_ms, [&] { n.crash(); });
  eng.run();
  EXPECT_FALSE(finished);
  EXPECT_FALSE(n.alive());
  EXPECT_EQ(n.dram_in_use(), 0u);
  n.reboot();
  EXPECT_TRUE(n.alive());
}

}  // namespace
}  // namespace now::os
