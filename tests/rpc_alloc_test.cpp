// Allocation and table tests for the AM/RPC stack.
//
// A warm RPC round trip may allocate only its frames (one per packet) and
// nothing per call in the AM or RPC tables; a building-sized RpcLayer may
// allocate no per-pair state before a pair first talks; and the caller's
// call table recycles its slots, so timeouts neither grow it nor let a late
// reply reach another call's callback.
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

#include "net/presets.hpp"
#include "net/switched.hpp"
#include "proto/am.hpp"
#include "proto/nic_mux.hpp"
#include "proto/rpc.hpp"
#include "sim/engine.hpp"

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
    network = std::make_unique<net::SwitchedNetwork>(engine, net::myrinet());
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
  std::unique_ptr<net::SwitchedNetwork> network;
  std::unique_ptr<NicMux> mux;
  std::vector<std::unique_ptr<os::Node>> nodes;
  std::unique_ptr<AmLayer> am;
  std::unique_ptr<RpcLayer> rpc;
};

// Issues `calls` echoes from node 0 to node 1, one after another.
void echo_chain(Rig& rig, int calls) {
  int left = calls;
  std::function<void()> next = [&] {
    if (left-- == 0) return;
    rig.rpc->call(0, 1, kEcho, 64, std::uint64_t{42}, [&](Body resp) {
      EXPECT_EQ(std::get<std::uint64_t>(resp), 42u);
      next();
    });
  };
  next();
  rig.engine.run();
}

TEST(RpcAlloc, WarmEchoAllocatesAtMostSixPerCall) {
  Rig rig(2);
  rig.bind_all();
  echo_chain(rig, 200);  // grows the engine pool, windows and call table
  constexpr int kCalls = 2'000;
  const std::uint64_t baseline = g_new_calls;
  echo_chain(rig, kCalls);
  const double per_call =
      static_cast<double>(g_new_calls - baseline) / kCalls;
  // A round trip is four packets (request, response, and an ack each way),
  // each owning one frame.
  EXPECT_LE(per_call, 6.0);
  EXPECT_EQ(rig.rpc->replies_received(), 2'200u);
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
// dropped, and B's callback must fire exactly once, with B's reply.
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
}

}  // namespace
}  // namespace now::proto
