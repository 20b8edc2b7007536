// LogP model tests, including cross-validation against the discrete-event
// simulator: the analytic model and the executable system must agree.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "models/logp.hpp"
#include "net/hierarchical.hpp"
#include "net/presets.hpp"
#include "proto/am.hpp"
#include "proto/nic_mux.hpp"
#include "sim/engine.hpp"

namespace now::models {
namespace {

LogGpParams medusa_params(int p = 2) {
  return derive_loggp(proto::am_medusa(), net::fddi_medusa(), p);
}

TEST(LogP, MedusaConstantsMatchThePaper) {
  const LogGpParams p = medusa_params();
  // "processor overhead of 8 us ... network and adapter latency adds an
  // additional 8 us."
  EXPECT_NEAR(p.o_us, 8.0, 3.0);
  EXPECT_NEAR(p.L_us, 8.0, 8.0);  // + serialization of the 64-byte probe
}

TEST(LogP, OneWayAndRoundTripComposition) {
  const LogGpParams p = medusa_params();
  EXPECT_DOUBLE_EQ(logp_round_trip_us(p), 2 * logp_one_way_us(p));
  EXPECT_GT(logp_one_way_us(p), p.L_us);
}

TEST(LogP, LongMessagesApproachBandwidth) {
  const LogGpParams p = medusa_params();
  const double t1 = loggp_long_message_us(p, 1 << 20);
  // Effective bandwidth within 5 % of 1/G for a 1 MB message.
  const double bw = (1 << 20) / t1;
  EXPECT_NEAR(bw, 1.0 / p.G_us_per_byte, 0.05 / p.G_us_per_byte);
}

TEST(LogP, HalfPowerPointSameRegimeAsPaper) {
  // The paper: AM reaches half of peak bandwidth at ~175-byte messages —
  // two orders below TCP's ~1,350 B.  The derived model lands in the same
  // few-hundred-byte regime (the constants come from a 64-byte probe, so
  // exact agreement is not expected).
  const LogGpParams p = medusa_params();
  const double n_half = loggp_half_power_bytes(p);
  EXPECT_GT(n_half, 100);
  EXPECT_LT(n_half, 450);
  // And TCP's half-power point is several times larger, as measured.
  const LogGpParams tcp =
      derive_loggp(proto::tcp_kernel(), net::fddi_medusa(), 2);
  EXPECT_GT(loggp_half_power_bytes(tcp) / n_half, 3.0);
}

TEST(LogP, BroadcastGrowsLogarithmically) {
  double prev = 0;
  for (const int procs : {2, 4, 8, 16, 32, 64}) {
    const double t = logp_broadcast_us(medusa_params(procs));
    EXPECT_GT(t, prev);
    prev = t;
  }
  // Doubling P adds roughly one level: between 1.1x and 2x per doubling.
  const double t8 = logp_broadcast_us(medusa_params(8));
  const double t16 = logp_broadcast_us(medusa_params(16));
  EXPECT_LT(t16 / t8, 2.0);
  EXPECT_GT(t16 / t8, 1.05);
}

TEST(LogP, SendTrainRateIsGapLimited) {
  const LogGpParams p = medusa_params();
  const double t10 = logp_send_train_us(p, 10);
  const double t20 = logp_send_train_us(p, 20);
  EXPECT_NEAR(t20 - t10, 10 * std::max(p.g_us, p.o_us), 1e-9);
}

// --- Cross-validation against the DES --------------------------------

struct Rig {
  Rig() : fabric(engine, net::fddi_medusa()), mux(fabric) {
    proto::AmParams ap;
    ap.costs = proto::am_medusa();
    ap.window = 64;
    am = std::make_unique<proto::AmLayer>(mux, ap);
    for (int i = 0; i < 2; ++i) {
      nodes.push_back(std::make_unique<os::Node>(
          engine, static_cast<net::NodeId>(i), os::NodeParams{}));
      mux.attach_node(*nodes.back());
    }
  }
  sim::Engine engine;
  net::HierarchicalNetwork fabric;
  proto::NicMux mux;
  std::unique_ptr<proto::AmLayer> am;
  std::vector<std::unique_ptr<os::Node>> nodes;
};

TEST(LogP, SimulatorOneWayMatchesModel) {
  Rig rig;
  const auto e0 =
      rig.am->create_endpoint(*rig.nodes[0], proto::AmLayer::Mode::kInterrupt);
  const auto e1 =
      rig.am->create_endpoint(*rig.nodes[1], proto::AmLayer::Mode::kInterrupt);
  sim::SimTime at = -1;
  rig.am->register_handler(e1, 1, [&](const proto::AmMessage&) {
    at = rig.engine.now();
  });
  rig.am->send(e0, e1, 1, 64, {});
  rig.engine.run();
  const double measured_us = sim::to_us(at);
  const double predicted_us = logp_one_way_us(medusa_params());
  EXPECT_NEAR(measured_us, predicted_us, predicted_us * 0.25);
}

TEST(LogP, SimulatorRoundTripMatchesModel) {
  Rig rig;
  const auto e0 =
      rig.am->create_endpoint(*rig.nodes[0], proto::AmLayer::Mode::kInterrupt);
  const auto e1 =
      rig.am->create_endpoint(*rig.nodes[1], proto::AmLayer::Mode::kInterrupt);
  sim::SimTime done = -1;
  int pongs = 0;
  constexpr int kRounds = 50;
  rig.am->register_handler(e1, 1, [&](const proto::AmMessage&) {
    rig.am->send(e1, e0, 2, 64, {});
  });
  rig.am->register_handler(e0, 2, [&](const proto::AmMessage&) {
    if (++pongs < kRounds) {
      rig.am->send(e0, e1, 1, 64, {});
    } else {
      done = rig.engine.now();
    }
  });
  rig.am->send(e0, e1, 1, 64, {});
  rig.engine.run();
  const double measured_rtt = sim::to_us(done) / kRounds;
  const double predicted_rtt = logp_round_trip_us(medusa_params());
  EXPECT_NEAR(measured_rtt, predicted_rtt, predicted_rtt * 0.3);
}

TEST(LogP, SimulatorBulkBandwidthMatchesLogGp) {
  Rig rig;
  const auto e0 =
      rig.am->create_endpoint(*rig.nodes[0], proto::AmLayer::Mode::kInterrupt);
  const auto e1 =
      rig.am->create_endpoint(*rig.nodes[1], proto::AmLayer::Mode::kInterrupt);
  sim::SimTime at = -1;
  rig.am->register_handler(e1, 1, [&](const proto::AmMessage&) {
    at = rig.engine.now();
  });
  const std::uint32_t bytes = 1 << 20;
  rig.am->send(e0, e1, 1, bytes, {});
  rig.engine.run();
  const double measured_us = sim::to_us(at);
  const double predicted_us =
      loggp_long_message_us(medusa_params(), bytes);
  EXPECT_NEAR(measured_us, predicted_us, predicted_us * 0.35);
}

}  // namespace
}  // namespace now::models
