// Allocation and table tests for the AM/RPC stack and the file services
// above it.
//
// AM frames and send-window entries come from per-thread pools
// (sim::Pooled), so a warm RPC round trip allocates nothing; in
// AddressSanitizer builds the pool is bypassed and every frame and window
// entry is one allocation, and nothing else is.  A building-sized RpcLayer
// may allocate no per-pair state before a pair first talks, and the
// caller's call table recycles its slots, so timeouts neither grow it nor
// let a late reply reach another call's callback.  The file services keep
// each read or write in a recycled op slot, and xFS's directory and client
// state recycle their entries, so a warm op — a peer fetch, an ownership
// transfer, or a read from the log through the RAID to a disk — allocates
// nothing; an op closes exactly once, through its reply or its timeout,
// even when an earlier call's reply arrives late.
//
// Every global operator new in this binary is replaced with a counting
// wrapper, as in engine_alloc_test.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "net/hierarchical.hpp"
#include "net/presets.hpp"
#include "proto/am.hpp"
#include "proto/nic_mux.hpp"
#include "proto/rpc.hpp"
#include "raid/raid.hpp"
#include "sim/engine.hpp"
#include "sim/pool_allocator.hpp"
#include "xfs/central_server.hpp"
#include "xfs/log.hpp"
#include "xfs/xfs.hpp"

// The replacements below pair malloc with free.  GCC does not see that
// operator new is replaced, and flags every inlined sized delete.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {

std::uint64_t g_new_calls = 0;
std::uint64_t g_new_bytes = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_new_calls;
  g_new_bytes += size;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_new_calls;
  g_new_bytes += size;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace now::proto {
namespace {

using namespace now::sim::literals;

constexpr MethodId kEcho = 7;
constexpr MethodId kSink = 8;
constexpr MethodId kSlowEcho = 9;

// `n` workstations on a Myrinet-class switch, every one bound to RPC, with
// an echo, a sink that never answers, and an echo that answers 10 ms late.
struct Rig {
  explicit Rig(std::uint32_t n) {
    network = std::make_unique<net::HierarchicalNetwork>(engine,
                                                         net::myrinet());
    mux = std::make_unique<NicMux>(*network);
    for (std::uint32_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<os::Node>(engine, i, os::NodeParams{}));
      mux->attach_node(*nodes.back());
    }
    am = std::make_unique<AmLayer>(*mux, AmParams{});
    rpc = std::make_unique<RpcLayer>(*am);
  }
  void bind_all() {
    for (auto& n : nodes) bind(*n);
  }
  void bind(os::Node& n) {
    rpc->bind(n);
    rpc->register_method(n.id(), kEcho,
                         [](net::NodeId, Body req, RpcLayer::ReplyFn reply) {
                           reply(64, std::move(req));
                         });
    rpc->register_method(n.id(), kSink,
                         [](net::NodeId, Body, RpcLayer::ReplyFn) {});
    rpc->register_method(
        n.id(), kSlowEcho,
        [this](net::NodeId, Body req, RpcLayer::ReplyFn reply) {
          engine.schedule_in(10_ms, [reply, v = std::get<std::uint32_t>(req)] {
            reply(64, v);
          });
        });
  }

  sim::Engine engine;
  std::unique_ptr<net::HierarchicalNetwork> network;
  std::unique_ptr<NicMux> mux;
  std::vector<std::unique_ptr<os::Node>> nodes;
  std::unique_ptr<AmLayer> am;
  std::unique_ptr<RpcLayer> rpc;
};

// Issues `calls` echoes from node 0 to node 1, one after another.  The
// chain is a plain object, so driving it allocates nothing itself.
struct EchoChain {
  void next() {
    if (left-- == 0) return;
    rig.rpc->call(0, 1, kEcho, 64, std::uint64_t{42}, [this](Body&& resp) {
      EXPECT_EQ(std::get<std::uint64_t>(resp), 42u);
      next();
    });
  }
  Rig& rig;
  int left;
};

void echo_chain(Rig& rig, int calls) {
  EchoChain chain{rig, calls};
  chain.next();
  rig.engine.run();
}

// What AM has put on the wire so far.
struct WireCount {
  std::uint64_t sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t acks = 0;
};

WireCount wire(const AmLayer& am) {
  return {am.stats().sent, am.stats().retransmits, am.stats().acks};
}

// Heap allocations AM made for frames since `before`: none with the pool
// compiled in.  Bypassed, each fragment costs a window entry and a wire
// copy per transmission, and each ack its frame.
std::uint64_t unpooled_frames(const AmLayer& am, const WireCount& before) {
  if (sim::kPoolObjects) return 0;
  const WireCount now = wire(am);
  return 2 * (now.sent - before.sent) +
         (now.retransmits - before.retransmits) + (now.acks - before.acks);
}

TEST(RpcAlloc, WarmEchoReusesPooledFrames) {
  Rig rig(2);
  rig.bind_all();
  constexpr int kCalls = 2'000;
  // The warm-up grows the engine pool and queue, the windows, the call
  // table and the pools.  The measured chain is five times longer, so
  // anything that grows with the number of calls (cancelled timers left in
  // the queue among them) allocates again and fails the count.
  echo_chain(rig, kCalls);
  const WireCount before = wire(*rig.am);
  const std::uint64_t baseline = g_new_calls;
  echo_chain(rig, 5 * kCalls);
  const std::uint64_t allocs = g_new_calls - baseline;
  // A round trip is four packets (request, response, and an ack each way)
  // and two window entries.  Pooled, none of them reaches the heap, and
  // nothing else in the AM or RPC tables does either.
  EXPECT_EQ(allocs, unpooled_frames(*rig.am, before));
  if (!sim::kPoolObjects) {
    EXPECT_EQ(allocs, 6u * 5 * kCalls);
  }
  EXPECT_EQ(rig.rpc->replies_received(), 6u * kCalls);
}

TEST(RpcAlloc, FramePoolKeepsAtMostItsCapPerThread) {
  using sim::SmallBlocks;
  std::vector<AmAck*> acks;
  for (std::size_t i = 0; i < 3 * SmallBlocks::kMaxCached; ++i) {
    acks.push_back(new AmAck);
  }
  for (AmAck* a : acks) delete a;
  const std::size_t kept = SmallBlocks::cached(sizeof(AmAck));
  EXPECT_EQ(kept, sim::kPoolObjects ? SmallBlocks::kMaxCached : 0u);
  // The kept frames serve the next burst without touching the heap.
  const std::uint64_t before = g_new_calls;
  for (std::size_t i = 0; i < kept; ++i) acks[i] = new AmAck;
  EXPECT_EQ(g_new_calls - before, 0u);
  for (std::size_t i = 0; i < kept; ++i) delete acks[i];
}

// A building binds a thousand nodes that mostly never talk to each other:
// binding may not allocate per-pair state, and a pair's first call costs
// the same however many nodes are bound.
TEST(RpcAlloc, NoPairStateBeforeFirstSend) {
  constexpr std::uint32_t kNodes = 1'024;
  Rig big(kNodes);
  const std::uint64_t before = g_new_calls;
  big.bind_all();
  const double allocs_per_node =
      static_cast<double>(g_new_calls - before) / kNodes;
  // Growing an endpoint's handler table and a node's method table; no
  // receive queues, no pair or call tables.
  EXPECT_LE(allocs_per_node, 6.0);

  Rig small(2);
  small.bind_all();
  // Frames come from a per-thread pool, so whichever rig called first
  // would pay for the frames the other reuses.  A third rig's echo warms
  // the pool first: both first calls then cost only their pair state.
  {
    Rig warm(2);
    warm.bind_all();
    echo_chain(warm, 1);
  }
  const auto first_call = [](Rig& rig) {
    const std::uint64_t calls = g_new_calls;
    const std::uint64_t b = g_new_bytes;
    echo_chain(rig, 1);
    return std::pair{g_new_calls - calls, g_new_bytes - b};
  };
  EXPECT_EQ(first_call(big), first_call(small));
}

TEST(RpcTable, TimedOutCallsDoNotGrowTheCallerTable) {
  Rig rig(2);
  rig.bind_all();
  int timed_out = 0;
  int left = 10'000;
  std::function<void()> next = [&] {
    if (left-- == 0) return;
    rig.rpc->call(
        0, 1, kSink, 64, {}, [](Body) { ADD_FAILURE() << "sink replied"; },
        1_ms, [&] {
          ++timed_out;
          next();
        });
  };
  next();
  rig.engine.run();
  EXPECT_EQ(timed_out, 10'000);
  EXPECT_EQ(rig.rpc->timeouts(), 10'000u);
  EXPECT_EQ(rig.rpc->call_slots(0), 1u);
}

// Call A times out and call B takes over its slot; A's late reply must be
// dropped, and B's callback must fire exactly once, with B's reply.  A
// reply names its call's slot, and the call id stored there must match.
// Then C times out with nothing after it: its late reply finds the slot
// free and is dropped too.
TEST(RpcTable, LateReplyNeverFiresAnotherCallsCallback) {
  Rig rig(2);
  rig.bind_all();
  std::vector<std::uint32_t> b_replies;
  bool a_timed_out = false;
  rig.rpc->call(
      0, 1, kSlowEcho, 64, std::uint32_t{1},
      [](Body) { ADD_FAILURE() << "A's reply arrived after its timeout"; },
      1_ms, [&] {
        a_timed_out = true;
        rig.rpc->call(0, 1, kSlowEcho, 64, std::uint32_t{2},
                      [&](Body resp) {
                        b_replies.push_back(std::get<std::uint32_t>(resp));
                      });
      });
  rig.engine.run();
  EXPECT_TRUE(a_timed_out);
  EXPECT_EQ(b_replies, std::vector<std::uint32_t>{2});
  EXPECT_EQ(rig.rpc->call_slots(0), 1u);
  EXPECT_EQ(rig.rpc->replies_received(), 1u);

  bool c_timed_out = false;
  rig.rpc->call(
      0, 1, kSlowEcho, 64, std::uint32_t{3},
      [](Body) { ADD_FAILURE() << "C's reply arrived after its timeout"; },
      1_ms, [&] { c_timed_out = true; });
  rig.engine.run();
  EXPECT_TRUE(c_timed_out);
  EXPECT_EQ(rig.rpc->replies_received(), 1u);
  EXPECT_EQ(rig.rpc->timeouts(), 2u);
  // Every request and every reply reached its handler.
  EXPECT_EQ(rig.am->stats().handled, 6u);
}

// ---- File services ------------------------------------------------------

// Nodes 0..n-1 on an ATM switch, every one an xFS client and manager, with
// their disks as the RAID-5 array under the log.
struct FsRig {
  explicit FsRig(int n, xfs::XfsParams xp) {
    network = std::make_unique<net::HierarchicalNetwork>(engine,
                                                         net::atm_155mbps());
    mux = std::make_unique<NicMux>(*network);
    am = std::make_unique<AmLayer>(*mux, AmParams{});
    rpc = std::make_unique<RpcLayer>(*am);
    std::vector<os::Node*> members;
    for (int i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<os::Node>(
          engine, static_cast<net::NodeId>(i), os::NodeParams{}));
      mux->attach_node(*nodes.back());
      rpc->bind(*nodes.back());
      raid::install_storage_service(*rpc, *nodes.back());
      members.push_back(nodes.back().get());
    }
    raid::RaidParams rp;
    rp.level = raid::Level::kRaid5;
    rp.stripe_unit = xfs::kBlockBytes;
    storage = std::make_unique<raid::SoftwareRaid>(*rpc, members, rp);
    log = std::make_unique<xfs::LogStore>(*storage, xp.segment_blocks);
    fs = std::make_unique<xfs::Xfs>(*rpc, *log, members, xp);
    fs->start();
  }

  // Runs `op(done)` to completion; returns the allocations it made
  // beyond AM's unpooled frames.
  template <typename Op>
  std::uint64_t allocs_of(Op&& op) {
    const WireCount before = wire(*am);
    const std::uint64_t calls = g_new_calls;
    int completed = 0;
    op([&completed](bool ok) {
      EXPECT_TRUE(ok);
      ++completed;
    });
    engine.run();
    EXPECT_EQ(completed, 1);
    return g_new_calls - calls - unpooled_frames(*am, before);
  }

  sim::Engine engine;
  std::unique_ptr<net::HierarchicalNetwork> network;
  std::unique_ptr<NicMux> mux;
  std::unique_ptr<AmLayer> am;
  std::unique_ptr<RpcLayer> rpc;
  std::vector<std::unique_ptr<os::Node>> nodes;
  std::unique_ptr<raid::SoftwareRaid> storage;
  std::unique_ptr<xfs::LogStore> log;
  std::unique_ptr<xfs::Xfs> fs;
};

xfs::XfsParams tiny_caches() {
  xfs::XfsParams p;
  p.client_cache_blocks = 4;
  return p;
}

// Client 0 cycles over eight blocks with a four-block cache, so every read
// misses, asks the block's manager, and fetches from the peer (1 or 2)
// that holds it; the block it evicts goes back to its manager as a notice.
// The only allocation left is the manager adding client 0 to the block's
// reader set: a hash-set node, which the evict notice frees again and the
// node pool recycles, so none reaches the heap unless the pool is bypassed.
TEST(FileServiceAlloc, WarmXfsReadAllocatesOnlyItsReaderEntry) {
  FsRig rig(4, tiny_caches());
  for (xfs::BlockId b = 0; b < 8; ++b) {
    rig.fs->read(b < 4 ? 1 : 2, b, [](bool) {});
  }
  rig.engine.run();
  for (int pass = 0; pass < 3; ++pass) {
    for (xfs::BlockId b = 0; b < 8; ++b) {
      rig.fs->read(0, b, [](bool) {});
      rig.engine.run();
    }
  }
  const std::uint64_t fetches = rig.fs->stats().peer_fetches;
  for (xfs::BlockId b = 0; b < 8; ++b) {
    EXPECT_LE(rig.allocs_of([&](auto done) { rig.fs->read(0, b, done); }),
              sim::kPoolObjects ? 0u : 1u)
        << "block " << b;
  }
  EXPECT_EQ(rig.fs->stats().peer_fetches, fetches + 8);
  EXPECT_EQ(rig.fs->ops_in_flight(), 0u);
}

// Clients 1 and 2 take turns writing one block: every write is an
// ownership transfer through the manager (a revoke to the previous owner
// and a grant).  What it allocates is the coherence state it moves: the
// new owner's dirty-set entry and the manager's reader entry for it, both
// hash-set nodes the node pool recycles, and its version entry, which a
// warm flat table holds without allocating.
TEST(FileServiceAlloc, WarmXfsWriteAllocatesOnlyTheStateItMoves) {
  FsRig rig(4, tiny_caches());
  constexpr xfs::BlockId kBlock = 5;
  for (int i = 0; i < 4; ++i) {
    rig.fs->write(1 + i % 2, kBlock, [](bool) {});
    rig.engine.run();
  }
  const std::uint64_t transfers = rig.fs->stats().ownership_transfers;
  for (int i = 0; i < 8; ++i) {
    const net::NodeId writer = 1 + static_cast<net::NodeId>(i % 2);
    EXPECT_LE(rig.allocs_of([&](auto done) {
      rig.fs->write(writer, kBlock, done);
    }),
              sim::kPoolObjects ? 0u : 3u)
        << "write " << i;
  }
  EXPECT_EQ(rig.fs->stats().ownership_transfers, transfers + 8);
  EXPECT_EQ(rig.fs->ops_in_flight(), 0u);
}

// Client 1 writes eight blocks and syncs them to the log, which keeps
// ownership nowhere: the flush notices empty their directory entries.
// Client 0 then cycles over the eight with a four-block cache, so every
// read misses, its manager finds no cached copy and directs it to the log,
// and the log reads the block's stripe unit through the RAID from a
// member's disk.  Warm, none of it allocates: the directory entry and
// reader node, the RAID's join, the RPC calls and frames, and the disk's
// completion are all recycled or inline.
TEST(FileServiceAlloc, WarmXfsLogReadAllocatesNothing) {
  FsRig rig(4, tiny_caches());
  for (xfs::BlockId b = 0; b < 8; ++b) {
    rig.fs->write(1, b, [](bool) {});
    rig.engine.run();
  }
  bool synced = false;
  rig.fs->sync(1, [&] { synced = true; });
  rig.engine.run();
  ASSERT_TRUE(synced);
  for (int pass = 0; pass < 3; ++pass) {
    for (xfs::BlockId b = 0; b < 8; ++b) {
      rig.fs->read(0, b, [](bool) {});
      rig.engine.run();
    }
  }
  const std::uint64_t log_reads = rig.fs->stats().log_reads;
  const std::uint64_t raid_reads = rig.storage->stats().reads;
  for (xfs::BlockId b = 0; b < 8; ++b) {
    const std::uint64_t allocs =
        rig.allocs_of([&](auto done) { rig.fs->read(0, b, done); });
    if (sim::kPoolObjects) {
      EXPECT_EQ(allocs, 0u) << "block " << b;
    }
  }
  EXPECT_EQ(rig.fs->stats().log_reads, log_reads + 8);
  EXPECT_EQ(rig.storage->stats().reads, raid_reads + 8);
  EXPECT_EQ(rig.fs->ops_in_flight(), 0u);
}

// Client 1 cycles over eight blocks the server holds in memory with a
// four-block cache: every read is a round trip to the server's memory,
// and allocates nothing.
TEST(FileServiceAlloc, WarmCentralReadAllocatesNothing) {
  FsRig rig(2, tiny_caches());
  xfs::CentralFsParams p;
  p.client_cache_blocks = 4;
  xfs::CentralServerFs fs(*rig.rpc, *rig.nodes[0], {rig.nodes[1].get()}, p);
  fs.prewarm(8);
  fs.start();
  for (int pass = 0; pass < 3; ++pass) {
    for (xfs::BlockId b = 0; b < 8; ++b) {
      fs.read(1, b, [](bool) {});
      rig.engine.run();
    }
  }
  const std::uint64_t hits = fs.stats().server_mem_hits;
  for (xfs::BlockId b = 0; b < 8; ++b) {
    EXPECT_EQ(rig.allocs_of([&](auto done) { fs.read(1, b, done); }), 0u)
        << "block " << b;
  }
  EXPECT_EQ(fs.stats().server_mem_hits, hits + 8);
  EXPECT_EQ(fs.ops_in_flight(), 0u);
}

// With the server down, a read and a write each fail exactly once, through
// their RPC timeouts, and leave no op behind.
TEST(FileServiceOps, CentralOpsFailExactlyOnceThroughTheirTimeouts) {
  FsRig rig(3, tiny_caches());
  xfs::CentralServerFs fs(*rig.rpc, *rig.nodes[0],
                          {rig.nodes[1].get(), rig.nodes[2].get()}, {});
  fs.start();
  rig.nodes[0]->crash();
  std::vector<bool> read_results, write_results;
  fs.read(1, 3, [&](bool ok) { read_results.push_back(ok); });
  fs.write(2, 4, [&](bool ok) { write_results.push_back(ok); });
  rig.engine.run();
  EXPECT_EQ(read_results, std::vector<bool>{false});
  EXPECT_EQ(write_results, std::vector<bool>{false});
  EXPECT_EQ(fs.stats().failed_ops, 2u);
  EXPECT_EQ(rig.rpc->timeouts(), 2u);
  EXPECT_EQ(fs.ops_in_flight(), 0u);
}

// Op A's request is lost while the server is down; A times out and fails,
// and its completion opens op B, which takes A's freed op slot and call
// slot.  The server is back before AM retransmits A's request, so A's
// reply arrives after A is gone: it must be dropped, and B must complete
// once, with its own reply.
TEST(FileServiceOps, LateCentralReplyNeverReachesTheNextOpInItsSlot) {
  using namespace now::sim::literals;
  FsRig rig(2, tiny_caches());
  xfs::CentralServerFs fs(*rig.rpc, *rig.nodes[0], {rig.nodes[1].get()}, {});
  fs.prewarm(16);
  fs.start();
  rig.nodes[0]->crash();
  std::vector<bool> a, b;
  fs.read(1, 3, [&](bool ok) {
    a.push_back(ok);
    fs.read(1, 4, [&](bool ok2) { b.push_back(ok2); });
  });
  // Down for the first four retransmissions, up for the fifth, which comes
  // at the same instant as A's 500 ms timeout but after it.
  rig.engine.schedule_at(450_ms, [&] { rig.nodes[0]->reboot(); });
  rig.engine.run();
  EXPECT_EQ(a, std::vector<bool>{false});
  EXPECT_EQ(b, std::vector<bool>{true});
  EXPECT_EQ(rig.rpc->timeouts(), 1u);
  // Both requests and both replies were handled; only B's reply found
  // its call.
  EXPECT_EQ(rig.am->stats().handled, 4u);
  EXPECT_EQ(rig.rpc->replies_received(), 1u);
  EXPECT_EQ(fs.stats().server_mem_hits, 1u);
  EXPECT_EQ(rig.rpc->call_slots(1), 1u);
  EXPECT_EQ(fs.ops_in_flight(), 0u);
}

// An xFS read whose manager stays down spends its retry budget and fails
// exactly once; the op slot is free afterwards.
TEST(FileServiceOps, XfsOpFailsExactlyOnceWhenItsManagerStaysDown) {
  using namespace now::sim::literals;
  xfs::XfsParams xp = tiny_caches();
  xp.op_timeout = 20_ms;
  xp.retry_backoff = 5_ms;
  xp.max_op_retries = 3;
  FsRig rig(4, xp);
  xfs::BlockId blk = 0;
  while (rig.fs->manager_of(blk) != 1) ++blk;
  rig.nodes[1]->crash();
  std::vector<bool> results;
  rig.fs->read(2, blk, [&](bool ok) { results.push_back(ok); });
  rig.engine.run();
  EXPECT_EQ(results, std::vector<bool>{false});
  EXPECT_EQ(rig.fs->stats().failed_ops, 1u);
  EXPECT_EQ(rig.fs->stats().op_retries, xp.max_op_retries + 1u);
  EXPECT_EQ(rig.fs->ops_in_flight(), 0u);
}

// The manager is down for an xFS read's first attempt and back before AM
// retransmits that attempt's request: the first attempt times out and the
// op retries, then the first attempt's reply arrives late.  It must be
// dropped; the op completes once, through the retry's reply.
TEST(FileServiceOps, LateXfsReplyIsDroppedAndTheRetryCompletesOnce) {
  using namespace now::sim::literals;
  FsRig rig(4, tiny_caches());
  xfs::BlockId blk = 0;
  while (rig.fs->manager_of(blk) != 1) ++blk;
  rig.nodes[1]->crash();
  std::vector<bool> results;
  rig.fs->read(2, blk, [&](bool ok) { results.push_back(ok); });
  rig.engine.schedule_at(450_ms, [&] { rig.nodes[1]->reboot(); });
  rig.engine.run();
  EXPECT_EQ(results, std::vector<bool>{true});
  EXPECT_EQ(rig.fs->stats().op_retries, 1u);
  EXPECT_EQ(rig.fs->stats().failed_ops, 0u);
  EXPECT_EQ(rig.rpc->timeouts(), 1u);
  // Both attempts' requests and replies were handled; the late first
  // reply found no call.
  EXPECT_EQ(rig.am->stats().handled, 4u);
  EXPECT_EQ(rig.rpc->replies_received(), 1u);
  EXPECT_EQ(rig.fs->ops_in_flight(), 0u);
}

}  // namespace
}  // namespace now::proto
