// Ablation: how much destination buffering (the AM credit window) does the
// Column workload need before local scheduling stops hurting it?
// ("...as long as enough buffering exists on the destination processor,
// the sending processor is not significantly slowed.")
//
// The seven window sizes are independent sweep points (--jobs N); each
// point derives all of its randomness from its own seed and runs the
// local/coscheduled pair on identical rigs.
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

double run_column(std::uint32_t window, bool coscheduled,
                  std::uint64_t seed) {
  sim::Engine engine;
  net::HierarchicalNetwork fabric(engine, net::cm5_fabric());
  proto::NicMux mux(fabric);
  proto::AmParams ap;
  ap.costs = proto::am_cm5();
  ap.window = window;
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
  sp.pattern = glunix::CommPattern::kColumn;
  sp.iterations = 30;
  sp.compute_per_iteration = 15_ms;
  sp.burst = 24;
  sp.seed = exp::derive_seed(seed, 99);
  sim::Duration app_time = 0;
  glunix::SpmdApp app(am, ptrs, sp, [&](sim::Duration d) {
    app_time = d;
    engine.stop();  // the filler would run on to the horizon
  });
  glunix::SpmdParams cp;
  cp.pattern = glunix::CommPattern::kComputeOnly;
  cp.iterations = 1'000'000;
  cp.compute_per_iteration = 15_ms;
  cp.seed = exp::derive_seed(seed, 100);
  glunix::SpmdApp filler(am, ptrs, cp, nullptr);
  app.start();
  filler.start();
  std::unique_ptr<glunix::Coscheduler> cs;
  if (coscheduled) {
    cs = std::make_unique<glunix::Coscheduler>(engine, 100_ms);
    cs->add_gang(app.gang());
    cs->add_gang(filler.gang());
    cs->start();
  }
  engine.run_until(60 * 60 * sim::kSecond);
  return app.finished() ? sim::to_sec(app_time) : -1;
}

struct Point {
  double local = 0;
  double cosched = 0;
};

}  // namespace

int main(int argc, char** argv) {
  now::bench::heading(
      "Ablation - Column vs destination buffering (AM credit window)",
      "'A Case for NOW', Figure 4 discussion: buffering absorbs bursts "
      "until it doesn't");
  now::bench::Sweep sweep(argc, argv, "bench/bench_ablation_am_window");

  now::bench::row("%-10s %12s %12s %10s", "window", "local (s)",
                  "cosched (s)", "slowdown");
  const std::vector<std::uint32_t> windows{8, 16, 32, 64, 128, 256, 512};
  std::vector<std::string> names;
  for (const std::uint32_t w : windows) {
    names.push_back("window_" + std::to_string(w));
  }
  const auto points = sweep.run(names, [&](now::exp::RunContext& ctx) {
    const std::uint32_t w = windows[ctx.task_index];
    Point p;
    p.local = run_column(w, false, ctx.seed);
    p.cosched = run_column(w, true, ctx.seed);
    return p;
  });
  for (std::size_t i = 0; i < windows.size(); ++i) {
    now::bench::row("%-10u %12.2f %12.2f %9.2fx", windows[i],
                    points[i].local, points[i].cosched,
                    points[i].local / points[i].cosched);
  }
  now::bench::row("");
  now::bench::row("expected shape: small windows stall the senders under "
                  "local scheduling; once the");
  now::bench::row("window covers a full descheduling epoch of bursts, the "
                  "slowdown collapses toward 1x.");
  return 0;
}
