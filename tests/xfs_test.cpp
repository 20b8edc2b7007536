// Tests for xFS: the log store, coherence, cooperative reads, write-behind
// flushing, the cleaner, and failure recovery.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/hierarchical.hpp"
#include "net/presets.hpp"
#include "proto/am.hpp"
#include "proto/nic_mux.hpp"
#include "proto/rpc.hpp"
#include "raid/raid.hpp"
#include "xfs/central_server.hpp"
#include "xfs/log.hpp"
#include "xfs/tape.hpp"
#include "xfs/xfs.hpp"

namespace now::xfs {
namespace {

using namespace now::sim::literals;

// A cluster where nodes 0..n-1 are xFS clients/managers and the same nodes'
// disks form the RAID-5 storage array.
struct Rig {
  explicit Rig(int n, XfsParams xp = {}) {
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
    raid::RaidParams rp;
    rp.level = raid::Level::kRaid5;
    rp.stripe_unit = kBlockBytes;
    std::vector<os::Node*> members;
    for (auto& nd : nodes) members.push_back(nd.get());
    storage = std::make_unique<raid::SoftwareRaid>(*rpc, members, rp);
    log = std::make_unique<LogStore>(*storage, xp.segment_blocks);
    fs = std::make_unique<Xfs>(*rpc, *log, members, xp);
    fs->start();
  }
  sim::Engine engine;
  std::unique_ptr<net::HierarchicalNetwork> network;
  std::unique_ptr<proto::NicMux> mux;
  std::unique_ptr<proto::AmLayer> am;
  std::unique_ptr<proto::RpcLayer> rpc;
  std::vector<std::unique_ptr<os::Node>> nodes;
  std::unique_ptr<raid::SoftwareRaid> storage;
  std::unique_ptr<LogStore> log;
  std::unique_ptr<Xfs> fs;
};

XfsParams small_params() {
  XfsParams p;
  p.client_cache_blocks = 8;
  p.segment_blocks = 4;
  return p;
}

TEST(LogStoreTest, AppendAndReadBack) {
  Rig rig(4, small_params());
  bool wrote = false;
  rig.log->append_segment(0, {1, 2, 3}, [&] { wrote = true; });
  rig.engine.run();
  EXPECT_TRUE(wrote);
  EXPECT_TRUE(rig.log->in_log(2));
  EXPECT_FALSE(rig.log->in_log(9));
  bool read = false;
  rig.log->read_block(1, 2, [&] { read = true; });
  rig.engine.run();
  EXPECT_TRUE(read);
  EXPECT_EQ(rig.log->stats().blocks_read, 1u);
}

TEST(LogStoreTest, RewriteKillsOldCopy) {
  Rig rig(4, small_params());
  rig.log->append_segment(0, {1, 2, 3, 4}, [] {});
  rig.engine.run();
  EXPECT_DOUBLE_EQ(rig.log->utilization(0), 1.0);
  rig.log->append_segment(0, {2, 3}, [] {});
  rig.engine.run();
  EXPECT_DOUBLE_EQ(rig.log->utilization(0), 0.5);  // 1 and 4 remain live
}

TEST(LogStoreTest, FullyDeadSegmentIsFreed) {
  Rig rig(4, small_params());
  rig.log->append_segment(0, {1, 2}, [] {});
  rig.engine.run();
  rig.log->append_segment(0, {1, 2}, [] {});
  rig.engine.run();
  EXPECT_DOUBLE_EQ(rig.log->utilization(0), 0.0);  // superseded entirely
}

TEST(LogStoreTest, CleanerCompactsColdSegments) {
  Rig rig(4, small_params());
  // Two half-dead segments.
  rig.log->append_segment(0, {1, 2, 3, 4}, [] {});
  rig.engine.run();
  rig.log->append_segment(0, {5, 6, 7, 8}, [] {});
  rig.engine.run();
  rig.log->append_segment(0, {2, 3, 6, 7}, [] {});  // kills half of each
  rig.engine.run();
  std::uint32_t cleaned = 0;
  rig.log->clean(0, 0.5, [&](std::uint32_t n) { cleaned = n; });
  rig.engine.run();
  EXPECT_EQ(cleaned, 2u);
  // Survivors 1,4,5,8 still readable.
  for (const BlockId b : {1, 4, 5, 8}) {
    EXPECT_TRUE(rig.log->in_log(b)) << b;
  }
  EXPECT_GT(rig.log->stats().live_blocks_copied, 0u);
}

TEST(TapeTest, ArchivedSegmentReadsPayTheRobot) {
  Rig rig(4, small_params());
  TapeArchive tape(rig.engine);
  rig.log->set_tape(&tape);
  rig.log->append_segment(0, {1, 2, 3, 4}, [] {});
  rig.engine.run();
  bool archived = false;
  rig.log->archive_segment(0, 0, [&] { archived = true; });
  rig.engine.run();
  EXPECT_TRUE(archived);
  EXPECT_TRUE(rig.log->on_tape(2));
  EXPECT_EQ(tape.stats().mounts, 1u);

  // Let the drive dismount before the cold read.
  rig.engine.run_until(rig.engine.now() + 10 * sim::kMinute);
  const sim::SimTime t0 = rig.engine.now();
  sim::SimTime read_at = -1;
  rig.log->read_block(1, 2, [&] { read_at = rig.engine.now(); });
  rig.engine.run();
  // A fresh mount: tens of seconds, not milliseconds.
  EXPECT_GT(sim::to_sec(read_at - t0), 10.0);
  EXPECT_EQ(rig.log->stats().tape_reads, 1u);
}

TEST(TapeTest, MountedDriveServesBatchedReadsCheaply) {
  Rig rig(4, small_params());
  TapeArchive tape(rig.engine);
  rig.log->set_tape(&tape);
  rig.log->append_segment(0, {1, 2, 3, 4}, [] {});
  rig.engine.run();
  rig.log->archive_segment(0, 0, [] {});
  rig.engine.run();
  rig.engine.run_until(rig.engine.now() + 10 * sim::kMinute);  // dismount
  // First read mounts; the next three ride the mounted drive.
  int done = 0;
  for (const BlockId b : {1, 2, 3, 4}) {
    rig.log->read_block(1, b, [&] { ++done; });
  }
  rig.engine.run();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(tape.stats().mounts, 2u);  // one for archive, one for reads
}

TEST(TapeTest, RewriteBringsBlockBackOffTape) {
  Rig rig(4, small_params());
  TapeArchive tape(rig.engine);
  rig.log->set_tape(&tape);
  rig.log->append_segment(0, {1, 2, 3, 4}, [] {});
  rig.engine.run();
  rig.log->archive_segment(0, 0, [] {});
  rig.engine.run();
  // A fresh append of block 2 supersedes the tape copy.
  rig.log->append_segment(0, {2}, [] {});
  rig.engine.run();
  EXPECT_FALSE(rig.log->on_tape(2));
  EXPECT_TRUE(rig.log->on_tape(1));
}

TEST(CentralServerTest, ReadsEscalateLocalServerDisk) {
  Rig rig(4, small_params());
  std::vector<os::Node*> clients{rig.nodes[1].get(), rig.nodes[2].get(),
                                 rig.nodes[3].get()};
  CentralFsParams p;
  p.client_cache_blocks = 4;
  p.server_cache_blocks = 8;
  CentralServerFs fs(*rig.rpc, *rig.nodes[0], clients, p);
  fs.start();
  int ok = 0;
  fs.write(1, 100, [&](bool s) { ok += s; });
  rig.engine.run();
  // Client 1 hits locally; client 2 hits server memory.
  fs.read(1, 100, [&](bool s) { ok += s; });
  fs.read(2, 100, [&](bool s) { ok += s; });
  rig.engine.run();
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(fs.stats().local_hits, 1u);
  EXPECT_EQ(fs.stats().server_mem_hits, 1u);
  // Push block 100 out of the tiny server cache; the next miss hits disk.
  for (xfs::BlockId b = 200; b < 210; ++b) {
    fs.write(3, b, [](bool) {});
    rig.engine.run();
  }
  // Client 2 cached only block 100, so this read hits locally and never
  // reaches the server.
  fs.read(2, 100, [](bool) {});
  rig.engine.run();
  // Client 3 never cached block 100, and its ten writes pushed the block
  // out of the 8-block server cache: this miss goes to the server disk.
  fs.read(3, 100, [](bool) {});
  rig.engine.run();
  EXPECT_GE(fs.stats().server_disk_reads, 1u);
}

TEST(CentralServerTest, ServerDeathTakesTheBuildingDown) {
  Rig rig(4, small_params());
  std::vector<os::Node*> clients{rig.nodes[1].get(), rig.nodes[2].get(),
                                 rig.nodes[3].get()};
  CentralServerFs fs(*rig.rpc, *rig.nodes[0], clients, CentralFsParams{});
  fs.start();
  fs.write(1, 5, [](bool) {});
  rig.engine.run();
  rig.nodes[0]->crash();  // the single point of failure does its thing
  int failures = 0;
  fs.read(2, 5, [&](bool s) { failures += !s; });
  fs.write(3, 6, [&](bool s) { failures += !s; });
  rig.engine.run();
  EXPECT_EQ(failures, 2);
  EXPECT_EQ(fs.stats().failed_ops, 2u);
}

TEST(XfsTest, FirstReadZeroFillsThenHitsLocally) {
  Rig rig(4, small_params());
  int done = 0;
  rig.fs->read(0, 100, [&](bool) { ++done; });
  rig.engine.run();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(rig.fs->stats().zero_fills, 1u);
  rig.fs->read(0, 100, [&](bool) { ++done; });
  rig.engine.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(rig.fs->stats().local_hits, 1u);
}

TEST(XfsTest, CooperativeReadComesFromPeerMemory) {
  Rig rig(4, small_params());
  rig.fs->write(1, 100, [](bool) {});
  rig.engine.run();
  const auto disk_reads_before = rig.log->stats().blocks_read;
  bool done = false;
  rig.fs->read(2, 100, [&](bool) { done = true; });
  rig.engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.fs->stats().peer_fetches, 1u);
  EXPECT_EQ(rig.log->stats().blocks_read, disk_reads_before);  // no disk
}

TEST(XfsTest, WriteInvalidatesOtherReaders) {
  Rig rig(4, small_params());
  rig.fs->write(1, 100, [](bool) {});
  rig.engine.run();
  rig.fs->read(2, 100, [](bool) {});
  rig.engine.run();
  EXPECT_TRUE(rig.fs->is_cached(2, 100));
  // Node 3 takes write ownership: node 1 (old owner) and node 2 (reader)
  // must lose their copies.
  rig.fs->write(3, 100, [](bool) {});
  rig.engine.run();
  EXPECT_FALSE(rig.fs->is_cached(1, 100));
  EXPECT_FALSE(rig.fs->is_cached(2, 100));
  EXPECT_TRUE(rig.fs->is_cached(3, 100));
  EXPECT_GE(rig.fs->stats().invalidations, 1u);
  EXPECT_GE(rig.fs->stats().ownership_transfers, 1u);
}

TEST(XfsTest, RepeatedWritesByOwnerAreLocal) {
  Rig rig(4, small_params());
  rig.fs->write(1, 100, [](bool) {});
  rig.engine.run();
  const auto calls_before = rig.rpc->calls_sent();
  int done = 0;
  rig.fs->write(1, 100, [&](bool) { ++done; });
  rig.engine.run();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(rig.rpc->calls_sent(), calls_before);  // pure cache write
}

TEST(XfsTest, EvictionStagesDirtyBlocksAndFlushesSegments) {
  Rig rig(4, small_params());  // cache 8, segment 4
  // Dirty 13 distinct blocks on node 0: evictions stage, staging flushes.
  int done = 0;
  for (BlockId b = 0; b < 13; ++b) {
    rig.fs->write(0, 1000 + b, [&](bool) { ++done; });
    rig.engine.run();
  }
  EXPECT_EQ(done, 13);
  rig.engine.run();
  EXPECT_GE(rig.fs->stats().segments_flushed, 1u);
  EXPECT_GT(rig.log->stats().segments_written, 0u);
}

// An owner that rewrites a block while its own segment flush of that block
// is in flight keeps ownership: the flush notice for the older version must
// not clear the manager's record of the newer one, or a second writer is
// granted the block without revoking the first (two dirty holders).
TEST(XfsTest, RewriteDuringOwnFlushKeepsOwnership) {
  Rig rig(4, small_params());  // cache 8, segment 4
  for (BlockId b = 0; b < 11; ++b) {
    rig.fs->write(0, 1000 + b, [](bool) {});
    rig.engine.run();
  }
  // The 12th write evicts block 1003, which fills a segment with blocks
  // 1000-1003; its flush starts as the write completes.  Block 1000 is
  // rewritten at once, while its old version is on the way to the log.
  bool rewritten = false;
  rig.fs->write(0, 1011, [&](bool) {
    rig.fs->write(0, 1000, [&](bool ok) {
      EXPECT_EQ(rig.fs->stats().segments_flushed, 0u);
      rewritten = ok;
    });
  });
  rig.engine.run();
  ASSERT_TRUE(rewritten);
  ASSERT_EQ(rig.fs->stats().segments_flushed, 1u);
  EXPECT_TRUE(rig.fs->is_dirty(0, 1000));
  EXPECT_EQ(rig.fs->debug_owner(1000), 0u);
  EXPECT_TRUE(rig.fs->coherence_invariant_holds());

  // A second writer revokes node 0's copy instead of sharing it.
  rig.fs->write(1, 1000, [](bool) {});
  rig.engine.run();
  EXPECT_FALSE(rig.fs->is_dirty(0, 1000));
  EXPECT_TRUE(rig.fs->is_dirty(1, 1000));
  EXPECT_EQ(rig.fs->debug_owner(1000), 1u);
  EXPECT_TRUE(rig.fs->coherence_invariant_holds());
}

TEST(XfsTest, SyncDrainsAllDirtyState) {
  Rig rig(4, small_params());
  for (BlockId b = 0; b < 13; ++b) {
    rig.fs->write(0, 1000 + b, [](bool) {});
    rig.engine.run();
  }
  bool synced = false;
  rig.fs->sync(0, [&] { synced = true; });
  rig.engine.run();
  EXPECT_TRUE(synced);
  // After sync every staged block is on the array; drop caches and read
  // one back: it must come from the log.
  rig.fs->client_crashed(0);
  const auto log_reads_before = rig.fs->stats().log_reads;
  bool read_done = false;
  rig.fs->read(1, 1000, [&](bool) { read_done = true; });
  rig.engine.run();
  EXPECT_TRUE(read_done);
  EXPECT_EQ(rig.fs->stats().log_reads, log_reads_before + 1);
}

TEST(XfsTest, ReadAfterFlushComesFromLog) {
  Rig rig(4, small_params());
  rig.fs->write(0, 7, [](bool) {});
  rig.engine.run();
  rig.fs->sync(0, [] {});
  rig.engine.run();
  // Another node reads: the owner still caches it though, so force the
  // cooperative path away by crashing the owner.
  rig.nodes[0]->crash();
  rig.fs->client_crashed(0);
  rig.storage->member_failed(0);  // membership layer notices the loss
  bool done = false;
  rig.fs->read(2, 7, [&](bool) { done = true; });
  rig.engine.run();
  EXPECT_TRUE(done);
  EXPECT_GE(rig.fs->stats().log_reads, 1u);
}

TEST(XfsTest, UnflushedDirtyDataDiesWithItsOwner) {
  Rig rig(4, small_params());
  rig.fs->write(1, 55, [](bool) {});
  rig.engine.run();
  rig.nodes[1]->crash();
  rig.fs->client_crashed(1);
  rig.storage->member_failed(1);
  EXPECT_GE(rig.fs->stats().lost_dirty_blocks, 1u);
  // The block was never logged: a new read zero-fills instead of hanging.
  bool done = false;
  rig.fs->read(2, 55, [&](bool) { done = true; });
  rig.engine.run();
  EXPECT_TRUE(done);
}

TEST(XfsTest, ManagerTakeoverRebuildsDirectoryAndServiceContinues) {
  Rig rig(4, small_params());
  // Find a block managed by node 1 and populate some state.
  BlockId b = 0;
  while (rig.fs->manager_of(b) != 1) ++b;
  rig.fs->write(2, b, [](bool) {});
  rig.engine.run();

  rig.nodes[1]->crash();
  rig.fs->client_crashed(1);
  rig.storage->member_failed(1);
  bool recovered = false;
  rig.fs->manager_takeover(1, 3, [&] { recovered = true; });
  rig.engine.run();
  EXPECT_TRUE(recovered);
  EXPECT_EQ(rig.fs->manager_of(b), 3u);
  EXPECT_EQ(rig.fs->stats().manager_takeovers, 1u);

  // Ownership knowledge survived: a read from node 0 is served from the
  // owner (node 2)'s memory, not zero-filled.
  const auto zero_before = rig.fs->stats().zero_fills;
  bool done = false;
  rig.fs->read(0, b, [&](bool) { done = true; });
  rig.engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.fs->stats().zero_fills, zero_before);
  EXPECT_GE(rig.fs->stats().peer_fetches, 1u);
}

TEST(XfsTest, OpsDuringTakeoverRetryAndComplete) {
  Rig rig(4, small_params());
  BlockId b = 0;
  while (rig.fs->manager_of(b) != 1) ++b;
  rig.fs->write(2, b, [](bool) {});
  rig.engine.run();
  rig.fs->sync(2, [] {});
  rig.engine.run();

  // Crash the manager, issue a read from node 0 *before* takeover begins,
  // then recover; the op must ride it out via timeout+retry.
  rig.nodes[1]->crash();
  rig.fs->client_crashed(1);
  rig.storage->member_failed(1);  // degraded reads serve its stripe units
  bool done = false;
  rig.fs->read(0, b, [&](bool) { done = true; });
  rig.engine.schedule_in(300 * sim::kMillisecond, [&] {
    rig.fs->manager_takeover(1, 0, [] {});
  });
  rig.engine.run_until(30 * sim::kSecond);
  EXPECT_TRUE(done);
  EXPECT_GT(rig.fs->stats().op_retries, 0u);
}

TEST(XfsTest, EveryServedOpReportsSuccess) {
  Rig rig(4, small_params());
  int ok = 0;
  int done = 0;
  auto count = [&](bool s) {
    ++done;
    ok += s;
  };
  rig.fs->read(0, 100, count);  // zero fill
  rig.engine.run();
  rig.fs->read(0, 100, count);  // local hit
  rig.fs->write(1, 200, count);  // ownership grant
  rig.engine.run();
  rig.fs->write(1, 200, count);  // owner's local hit
  rig.fs->read(2, 200, count);   // peer fetch from node 1
  rig.engine.run();
  EXPECT_EQ(done, 5);
  EXPECT_EQ(ok, 5);
  EXPECT_EQ(rig.fs->stats().zero_fills, 1u);
  EXPECT_EQ(rig.fs->stats().local_hits, 2u);
  EXPECT_EQ(rig.fs->stats().peer_fetches, 1u);
  EXPECT_EQ(rig.fs->stats().failed_ops, 0u);
}

TEST(XfsTest, ManagerDeathFailsOpsOnceTheRetryBudgetRunsOut) {
  XfsParams xp = small_params();
  xp.max_op_retries = 2;
  Rig rig(4, xp);
  BlockId b = 0;
  while (rig.fs->manager_of(b) != 1) ++b;
  // No takeover follows: ops on blocks node 1 manages can never finish.
  rig.nodes[1]->crash();
  rig.fs->client_crashed(1);
  rig.storage->member_failed(1);
  int failures = 0;
  int ok = 0;
  auto count = [&](bool s) {
    failures += !s;
    ok += s;
  };
  rig.fs->read(2, b, count);
  rig.fs->write(3, b, count);
  rig.fs->read(2, b + 1, count);  // another manager: unaffected
  rig.engine.run();
  EXPECT_EQ(failures, 2);
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(rig.fs->stats().failed_ops, 2u);
  // Each failed op spent the whole budget before giving up: the budget
  // is checked when a retry fires, so the last retry is the one refused.
  EXPECT_EQ(rig.fs->stats().op_retries, 2u * (xp.max_op_retries + 1));
}

TEST(XfsTest, WritesAsSegmentsAreFullStripeOnTheRaid) {
  XfsParams xp = small_params();
  xp.segment_blocks = 3;  // matches 4-member RAID-5 (3 data + 1 parity)
  Rig rig(4, xp);
  for (BlockId b = 0; b < 11; ++b) {
    rig.fs->write(0, b, [](bool) {});
    rig.engine.run();
  }
  rig.fs->sync(0, [] {});
  rig.engine.run();
  // Log appends land as full-stripe writes; only the final partial
  // segment of the sync may fall back to read-modify-write parity.
  EXPECT_GT(rig.storage->stats().full_stripe_writes, 0u);
  EXPECT_LE(rig.storage->stats().parity_updates, 2u);
}

}  // namespace
}  // namespace now::xfs
