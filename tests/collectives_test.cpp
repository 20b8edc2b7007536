// Tests for AM collectives, including the LogP broadcast cross-check.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "glunix/collectives.hpp"
#include "models/logp.hpp"
#include "net/hierarchical.hpp"
#include "net/presets.hpp"
#include "proto/am.hpp"
#include "proto/nic_mux.hpp"
#include "sim/engine.hpp"

namespace now::glunix {
namespace {

struct Rig {
  explicit Rig(int n) : fabric(engine, net::fddi_medusa()), mux(fabric) {
    proto::AmParams ap;
    ap.costs = proto::am_medusa();
    ap.window = 64;
    am = std::make_unique<proto::AmLayer>(mux, ap);
    for (int i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<os::Node>(
          engine, static_cast<net::NodeId>(i), os::NodeParams{}));
      mux.attach_node(*nodes.back());
    }
  }
  std::vector<os::Node*> ptrs() {
    std::vector<os::Node*> v;
    for (auto& n : nodes) v.push_back(n.get());
    return v;
  }
  sim::Engine engine;
  net::HierarchicalNetwork fabric;
  proto::NicMux mux;
  std::unique_ptr<proto::AmLayer> am;
  std::vector<std::unique_ptr<os::Node>> nodes;
};

class CollectivesWidth : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesWidth, BroadcastReachesEveryone) {
  Rig rig(GetParam());
  Collectives coll(*rig.am, rig.ptrs());
  bool done = false;
  coll.broadcast(0, 1024, [&] { done = true; });
  rig.engine.run();
  EXPECT_TRUE(done);
}

TEST_P(CollectivesWidth, ReduceSums) {
  const int n = GetParam();
  Rig rig(n);
  Collectives coll(*rig.am, rig.ptrs());
  std::vector<double> contrib;
  double expect = 0;
  for (int r = 0; r < n; ++r) {
    contrib.push_back(r + 1.0);
    expect += r + 1.0;
  }
  double got = -1;
  coll.reduce(contrib, [](double a, double b) { return a + b; },
              [&](double v) { got = v; });
  rig.engine.run();
  EXPECT_DOUBLE_EQ(got, expect);
}

TEST_P(CollectivesWidth, ReduceMax) {
  const int n = GetParam();
  Rig rig(n);
  Collectives coll(*rig.am, rig.ptrs());
  std::vector<double> contrib(n, 1.0);
  contrib[n / 2] = 42.0;
  double got = -1;
  coll.reduce(contrib,
              [](double a, double b) { return a > b ? a : b; },
              [&](double v) { got = v; });
  rig.engine.run();
  EXPECT_DOUBLE_EQ(got, 42.0);
}

TEST_P(CollectivesWidth, BarrierCompletes) {
  Rig rig(GetParam());
  Collectives coll(*rig.am, rig.ptrs());
  bool done = false;
  coll.barrier([&] { done = true; });
  rig.engine.run();
  EXPECT_TRUE(done);
}

INSTANTIATE_TEST_SUITE_P(Widths, CollectivesWidth,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33));

TEST(CollectivesTest, NonZeroRootBroadcast) {
  Rig rig(7);
  Collectives coll(*rig.am, rig.ptrs());
  bool done = false;
  coll.broadcast(4, 512, [&] { done = true; });
  rig.engine.run();
  EXPECT_TRUE(done);
}

TEST(CollectivesTest, BroadcastScalesLogarithmically) {
  // Doubling the communicator adds about one tree level, not double the
  // time (the whole point of the binomial tree).
  auto run = [](int n) {
    Rig rig(n);
    Collectives coll(*rig.am, rig.ptrs());
    sim::SimTime at = -1;
    coll.broadcast(0, 256, [&] { at = rig.engine.now(); });
    rig.engine.run();
    return at;
  };
  const auto t8 = run(8);
  const auto t16 = run(16);
  const auto t32 = run(32);
  EXPECT_LT(static_cast<double>(t16) / t8, 1.7);
  EXPECT_LT(static_cast<double>(t32) / t16, 1.7);
}

TEST(CollectivesTest, MeasuredBroadcastTracksLogPPrediction) {
  for (const int n : {4, 8, 16, 32}) {
    Rig rig(n);
    Collectives coll(*rig.am, rig.ptrs());
    sim::SimTime at = -1;
    coll.broadcast(0, 64, [&] { at = rig.engine.now(); });
    rig.engine.run();
    const double measured_us = sim::to_us(at);
    const double predicted_us = models::logp_broadcast_us(
        models::derive_loggp(proto::am_medusa(), net::fddi_medusa(), n));
    // Same tree, same constants.  The DES additionally pays ack/credit
    // processing and per-node stack queueing that LogP abstracts away, so
    // (as in the original LogP validations) agreement is within ~60 %,
    // and always on the pessimistic side.
    EXPECT_GE(measured_us, predicted_us * 0.9) << "width " << n;
    EXPECT_LE(measured_us, predicted_us * 1.6) << "width " << n;
  }
}

}  // namespace
}  // namespace now::glunix
