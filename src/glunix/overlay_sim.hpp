// The Figure 3 study: overlaying an MPP workload on a NOW that is also
// serving interactive users (Arpaci et al., "The Interaction of Parallel
// and Sequential Workloads on a Network of Workstations").
//
// A stream of gang-scheduled parallel jobs (the LANL CM-5 mix) is run two
// ways:
//   * on a dedicated MPP partition, FCFS — the baseline response times;
//   * on a NOW of N workstations whose owners come and go per a usage
//     trace.  GLUnix only recruits machines idle for the one-minute window,
//     migrates a rank away (checkpoint + restore, gang paused) the moment
//     its machine's owner returns, and queues jobs when fewer than `width`
//     recruitable machines exist.
//
// The paper's result: with 64 workstations under a typical sequential load,
// the 32-node MPP workload runs only ~10 % slower than on the dedicated
// machine — "like getting almost a CM-5 for free."
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "trace/parallel_trace.hpp"
#include "trace/usage_trace.hpp"

namespace now::glunix {

struct OverlayParams {
  /// NOW size (Figure 3's x-axis).
  std::uint32_t workstations = 64;
  /// The paper's availability rule: no user activity for one minute.
  sim::Duration idle_window = 60 * sim::kSecond;
  /// Guest (rank) memory image moved at each migration.
  std::uint64_t guest_memory_bytes = 32ull << 20;
};

struct OverlayResult {
  /// Figure 3's y-axis.  Jobs are replayed with the *dedicated machine's
  /// schedule embedded*: each job becomes ready on the NOW at the instant
  /// it started on the dedicated MPP (the LANL trace came from the real
  /// machine, so its queueing is part of the workload).  Slowdown is then
  /// total NOW execution time (recruiting machines, migrations, stalls
  /// included) over total dedicated execution time; 1.1 = 10 % slower.
  double workload_slowdown = 0.0;
  double mean_response_now_sec = 0.0;
  double mean_response_mpp_sec = 0.0;
  std::uint64_t migrations = 0;
  /// Times a job had to pause because no recruitable machine existed.
  std::uint64_t stalls_for_machines = 0;
  std::uint64_t jobs_completed = 0;
  /// The other half of the bargain: how often a returning owner found a
  /// guest on their machine, and how long the freeze-and-leave took them.
  std::uint64_t user_disturbances = 0;
  double mean_user_delay_sec = 0.0;
};

/// FCFS response times on a dedicated MPP partition.
std::vector<sim::Duration> dedicated_mpp_response_times(
    const std::vector<trace::ParallelJob>& jobs, std::uint32_t partition);

/// FCFS start times on a dedicated MPP partition (the schedule the NOW
/// replay inherits).
std::vector<sim::SimTime> dedicated_mpp_start_times(
    const std::vector<trace::ParallelJob>& jobs, std::uint32_t partition);

/// Full overlay simulation.  `usage` must cover at least
/// `params.workstations` machines (traces are reused round-robin beyond
/// their width, as the original study did to scale past 53 machines).
OverlayResult simulate_overlay(const trace::UsageTrace& usage,
                               const std::vector<trace::ParallelJob>& jobs,
                               const OverlayParams& params);

}  // namespace now::glunix
