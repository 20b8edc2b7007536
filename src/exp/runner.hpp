// The sweep/replication runner: N independent simulations on all cores,
// bit-identical to running them serially.
//
// run_sweep(n, task) executes task(ctx) for task indices 0..n-1, where each
// call gets a fresh RunContext — derived seed, private metrics registry,
// private tracer, private log config — installed on the executing thread
// for exactly the task's duration.  Results land in task-index order no
// matter which thread finished first, and because every task constructs
// all of its state from ctx.seed = derive_seed(base_seed, index), the
// result vector is invariant under the jobs count:
//
//     run_sweep(n, task, {.jobs = 1}) == run_sweep(n, task, {.jobs = 8})
//
// byte for byte (results, metrics dumps, traces).  `jobs = 1` runs inline
// on the calling thread with no threads at all — the exact serial code
// path — so the equality above is a real test oracle, exercised by
// tests/exp_test.cpp and by the golden stdout cases, which run every sweep
// bench at --jobs 1 and --jobs 4 (tests/golden/).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "exp/run_context.hpp"

namespace now::exp {

/// Threads to use when the caller asked for `requested` (0 = one per
/// hardware thread; always at least 1).
inline unsigned effective_jobs(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

struct SweepOptions {
  /// Threads; 0 = one per hardware thread, 1 = serial (no threads).
  unsigned jobs = 0;
  /// Sweep identity: task i seeds from derive_seed(base_seed, first_index + i).
  std::uint64_t base_seed = 1;
  /// Offset into the task-index space, for running several sweeps under
  /// one base seed without reusing indices (bench_util's Sweep threads its
  /// running count through here).
  std::size_t first_index = 0;
  /// When set, receives per-task wall-clock milliseconds (index order).
  /// Wall times are measurement, not results: they vary run to run and
  /// must never feed back into simulation state or printed output.
  std::vector<double>* wall_ms = nullptr;
};

/// Runs task(ctx) for indices 0..n-1 and returns the results in index
/// order.  At jobs > 1, min(jobs, n) threads take the next index from one
/// shared counter, highest index first: sweep axes ascend, so the last
/// points are usually the longest, and starting them first keeps one of
/// them from running alone at the end.  Task exceptions propagate: the
/// exception of the lowest failing index is rethrown (at jobs = 1, later
/// tasks do not run; at jobs > 1 every task runs first).
template <typename Fn>
auto run_sweep(std::size_t n, Fn&& task, const SweepOptions& opt = {})
    -> std::vector<std::invoke_result_t<Fn&, RunContext&>> {
  using R = std::invoke_result_t<Fn&, RunContext&>;
  static_assert(!std::is_void_v<R>,
                "run_sweep tasks must return their result (use a struct; "
                "side effects through shared state defeat isolation)");
  std::vector<std::optional<R>> slots(n);
  if (opt.wall_ms != nullptr) opt.wall_ms->assign(n, 0.0);

  const unsigned jobs = effective_jobs(opt.jobs);

  const auto run_one = [&](std::size_t i) {
    const auto t0 = std::chrono::steady_clock::now();
    RunContext ctx(opt.base_seed, opt.first_index + i);
    ScopedRunContext scope(ctx);
    slots[i].emplace(task(ctx));
    if (opt.wall_ms != nullptr) {
      (*opt.wall_ms)[i] =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
    }
  };

  if (jobs <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) run_one(i);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(n);
    {
      // jthreads join when this scope ends, also if starting one threw.
      std::vector<std::jthread> threads(std::min<std::size_t>(jobs, n));
      for (std::jthread& t : threads) {
        t = std::jthread([&] {
          for (std::size_t k; (k = next.fetch_add(1)) < n;) {
            const std::size_t i = n - 1 - k;
            try {
              run_one(i);
            } catch (...) {
              errors[i] = std::current_exception();
            }
          }
        });
      }
    }
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

  std::vector<R> results;
  results.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    results.push_back(std::move(*slots[i]));
  }
  return results;
}

}  // namespace now::exp
