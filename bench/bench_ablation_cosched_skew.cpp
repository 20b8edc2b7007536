// Ablation: how tightly must the coscheduler's global slots align?
// Ousterhout-style coscheduling degrades gracefully with skew — until the
// skew approaches the slot length and "coscheduling" stops being co.
//
// The skew values are independent sweep points (--jobs N).  Each point
// runs the skewed configuration AND its own perfectly-aligned reference
// on the identical rig (same derived seed), so the "vs aligned" ratio is
// a controlled within-point comparison and every point is a pure function
// of its seed.
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "exp/seed.hpp"
#include "glunix/coschedule.hpp"
#include "glunix/spmd.hpp"
#include "net/hierarchical.hpp"
#include "net/presets.hpp"
#include "proto/am.hpp"
#include "proto/nic_mux.hpp"

namespace {

using namespace now;
using namespace now::sim::literals;

double run_connect(sim::Duration skew, std::uint64_t seed) {
  sim::Engine engine;
  net::HierarchicalNetwork fabric(engine, net::cm5_fabric());
  proto::NicMux mux(fabric);
  proto::AmParams ap;
  ap.costs = proto::am_cm5();
  ap.window = 64;
  proto::AmLayer am(mux, ap);
  std::vector<std::unique_ptr<os::Node>> nodes;
  for (int i = 0; i < 4; ++i) {
    os::NodeParams p;
    p.cpu.quantum_jitter = 0.25;
    p.cpu.seed = exp::derive_seed(seed, static_cast<std::uint64_t>(i));
    nodes.push_back(std::make_unique<os::Node>(
        engine, static_cast<net::NodeId>(i), p));
    mux.attach_node(*nodes.back());
  }
  std::vector<os::Node*> ptrs;
  for (auto& n : nodes) ptrs.push_back(n.get());

  glunix::SpmdParams sp;
  sp.pattern = glunix::CommPattern::kConnect;
  sp.iterations = 30;
  sp.compute_per_iteration = 15_ms;
  sp.rpcs_per_iteration = 6;
  sp.seed = exp::derive_seed(seed, 99);
  sim::Duration app_time = 0;
  glunix::SpmdApp app(am, ptrs, sp,
                      [&](sim::Duration d) { app_time = d; });
  glunix::SpmdParams cp;
  cp.pattern = glunix::CommPattern::kComputeOnly;
  cp.iterations = 1'000'000;
  cp.compute_per_iteration = 15_ms;
  cp.seed = exp::derive_seed(seed, 100);
  glunix::SpmdApp filler(am, ptrs, cp, nullptr);
  app.start();
  filler.start();
  glunix::Coscheduler cs(engine, 100_ms, skew);
  cs.add_gang(app.gang());
  cs.add_gang(filler.gang());
  cs.start();
  engine.run_until(60 * 60 * sim::kSecond);
  return app.finished() ? sim::to_sec(app_time) : -1;
}

struct Point {
  double skewed = 0;
  double aligned = 0;
};

}  // namespace

int main(int argc, char** argv) {
  now::bench::heading(
      "Ablation - coscheduling slot-alignment skew (Connect, 1 competitor)",
      "design-choice check for the global time-slice matrix (100 ms slots)");
  now::bench::Sweep sweep(argc, argv, "bench/bench_ablation_cosched_skew");

  const std::vector<sim::Duration> skews{0, 1_ms, 5_ms, 10_ms,
                                         25_ms, 50_ms, 90_ms};
  std::vector<std::string> names;
  for (const auto skew : skews) {
    names.push_back("skew_" + sim::format_duration(skew));
  }
  const auto points = sweep.run(names, [&](now::exp::RunContext& ctx) {
    const sim::Duration skew = skews[ctx.task_index];
    Point p;
    p.aligned = run_connect(0, ctx.seed);
    p.skewed = skew == 0 ? p.aligned : run_connect(skew, ctx.seed);
    return p;
  });

  now::bench::row("%-14s %14s %10s", "skew", "runtime (s)", "vs aligned");
  now::bench::row("%-14s %14.2f %10s", "0 (perfect)", points[0].aligned,
                  "1.00x");
  for (std::size_t i = 1; i < skews.size(); ++i) {
    now::bench::row("%-14s %14.2f %9.2fx",
                    sim::format_duration(skews[i]).c_str(), points[i].skewed,
                    points[i].skewed / points[i].aligned);
  }
  now::bench::row("");
  now::bench::row("expected shape: tolerant of skew well under the slot "
                  "length; a building-wide NOW");
  now::bench::row("does not need microsecond-synchronized clocks to "
                  "coschedule effectively.");
  return 0;
}
