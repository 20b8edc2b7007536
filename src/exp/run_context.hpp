// Per-run isolation context for parallel experiments.
//
// A RunContext owns everything that used to be process-wide mutable state:
// the metrics registry and the tracer — plus the task's derived seed.
// ScopedRunContext installs those on the calling thread
// (obs::set_thread_metrics / obs::set_thread_tracer), so all the
// instrumentation call sites deep inside the stack — which keep calling
// plain obs::metrics() and obs::tracer() — resolve to this run's private
// instances.  N concurrent simulations therefore never share a mutable
// global, which is both the thread-safety story and the determinism
// story: a run's observable output depends only on its context, not on
// what ran beside it.
//
// The runner (exp::run_sweep) creates one RunContext per task and installs
// it for exactly the task's duration; now::Cluster accepts a RunContext
// via ClusterConfig::run to seed itself from the task's derived seed.
#pragma once

#include <cstddef>
#include <cstdint>

#include "exp/seed.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace now::exp {

struct RunContext {
  /// This task's seed: derive_seed(base_seed, task_index).  Everything
  /// random in the task must be constructed from it (and only it), so the
  /// task's results are a pure function of (base_seed, task_index).
  std::uint64_t seed = 1;
  std::size_t task_index = 0;

  /// Private instances of the (otherwise process-wide) observability state.
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;

  RunContext() = default;
  RunContext(std::uint64_t base_seed, std::size_t index)
      : seed(derive_seed(base_seed, index)), task_index(index) {}
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;
};

/// RAII install/restore of a RunContext's state on the calling thread.
/// Nestable (the previous bindings are restored on destruction), but a
/// context must only ever be active on one thread at a time.
class ScopedRunContext {
 public:
  explicit ScopedRunContext(RunContext& ctx);
  ~ScopedRunContext();
  ScopedRunContext(const ScopedRunContext&) = delete;
  ScopedRunContext& operator=(const ScopedRunContext&) = delete;

 private:
  RunContext* prev_ctx_;
  obs::MetricsRegistry* prev_metrics_;
  obs::Tracer* prev_tracer_;
};

/// The RunContext active on this thread, or nullptr outside any scope.
RunContext* current_context();

}  // namespace now::exp
