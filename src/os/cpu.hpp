// Per-workstation CPU with a commodity-Unix-style time-sliced scheduler.
//
// This is the "unmodified local operating system" the paper insists NOW must
// build on.  Processes are continuation-driven: user code asks for a span of
// compute and supplies a callback for when it completes; blocking and waking
// go through explicit calls.  The scheduler round-robins runnable processes
// with a fixed quantum per priority level — which is exactly the behaviour
// that destroys fine-grain parallel programs under *local* scheduling
// (Figure 4): a message for a descheduled process waits up to a full quantum
// before its handler runs.  GLUnix's coscheduler defeats this by aligning
// quanta across nodes (src/glunix/coschedule.hpp).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace now::os {

using ProcessId = std::uint32_t;
inline constexpr ProcessId kNoProcess = 0xffffffffu;

/// Scheduling class.  Interactive preempts batch, mirroring the priority
/// decay of 4.3BSD-era schedulers in the coarse.
enum class SchedClass : std::uint8_t { kBatch = 0, kInteractive = 1 };

struct CpuParams {
  /// Round-robin time slice.  1990s Unix used ~100 ms.
  sim::Duration quantum = 100 * sim::kMillisecond;
  /// Direct cost of a context switch (register/TLB/cache disturbance).
  sim::Duration context_switch = 25 * sim::kMicrosecond;
  /// Peak floating-point rate, for compute_flops() (e.g. 40 MFLOPS for the
  /// paper's hypothetical NOW node).
  double mflops = 40.0;
  /// Per-dispatch random variation of the quantum, as a fraction (0.2 =>
  /// +/-20 %).  Real Unix quanta vary with tick aliasing and priority
  /// decay; in a cluster simulation this is what keeps the nodes' local
  /// schedules from staying accidentally phase-locked — give each node a
  /// distinct `seed`.  Zero (the default) keeps scheduling exact.
  double quantum_jitter = 0.0;
  std::uint64_t seed = 0;
};

struct CpuStats {
  std::uint64_t dispatches = 0;
  std::uint64_t preemptions = 0;
  /// Processes waiting behind each dispatched one.
  sim::Summary run_queue_len;
};

/// One simulated processor running many processes.
class Cpu {
 public:
  using Continuation = std::function<void()>;

  Cpu(sim::Engine& engine, CpuParams params);
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  /// Creates a runnable process whose `entry` continuation runs when first
  /// scheduled.
  ProcessId spawn(std::string name, SchedClass sched, Continuation entry);

  /// From within a process continuation: run for `work` of CPU time, then
  /// call `then`.  The wall-clock span is >= work under contention.
  void compute(ProcessId pid, sim::Duration work, Continuation then);

  /// Convenience: compute time for `flops` floating-point operations at the
  /// CPU's peak rate.
  void compute_flops(ProcessId pid, double flops, Continuation then);

  /// From within a process continuation: deschedule until wake(pid); `then`
  /// runs once the process is next dispatched.
  void block(ProcessId pid, Continuation then);

  /// Makes a blocked process runnable (callable from any event context,
  /// e.g. a message-arrival handler).  No-op if not blocked.
  void wake(ProcessId pid);

  /// Terminates the process.  Must be its final call.
  void exit(ProcessId pid);

  /// Forcibly terminates a process from outside (GLUnix eviction/migration).
  void kill(ProcessId pid);

  /// Takes a process off the CPU and keeps it off (SIGSTOP semantics).
  /// GLUnix's coscheduler uses this to implement the global time-slice
  /// matrix: only the currently coscheduled gang is resumed.  A suspended
  /// process keeps its pending work; wake() on it is remembered but does
  /// not run it until resume().
  void suspend(ProcessId pid);

  /// Undoes suspend(); the process becomes runnable again if it has work
  /// or a remembered wake (SIGCONT semantics).
  void resume(ProcessId pid);

  bool suspended(ProcessId pid) const;

  /// Charges interrupt/system time at the highest priority: the currently
  /// running process is delayed by `t` and the time counts as CPU busy.
  /// This is where receive-side protocol *overhead* lands.
  void steal(sim::Duration t);

  /// Kills every process (node crash).  The CPU can be reused afterwards.
  void reset();

  bool idle() const { return current_ == kNoProcess; }
  ProcessId current() const { return current_; }
  std::size_t runnable_count() const;
  bool exists(ProcessId pid) const;
  bool blocked(ProcessId pid) const;
  const std::string& name(ProcessId pid) const;

  /// Busy time / elapsed time since construction.
  double utilization() const;
  sim::Duration busy_time() const { return busy_; }
  const CpuStats& stats() const { return stats_; }

  const CpuParams& params() const { return params_; }

  /// Registers a callback invoked whenever a process is dispatched onto the
  /// CPU.  User-level (polling) Active Messages use this to model the fact
  /// that a descheduled process cannot poll its network endpoint — the root
  /// cause of the local-scheduling slowdowns in Figure 4.
  void add_dispatch_observer(std::function<void(ProcessId)> fn) {
    dispatch_observers_.push_back(std::move(fn));
  }

 private:
  enum class PState : std::uint8_t { kReady, kRunning, kBlocked, kDead };

  struct Process {
    std::string name;
    SchedClass sched = SchedClass::kBatch;
    PState state = PState::kDead;
    /// SIGSTOP flag, orthogonal to state: a suspended process is never
    /// enqueued; kReady while suspended means "runnable once resumed".
    bool suspended = false;
    sim::Duration pending_work = 0;
    Continuation cont;
  };

  Process& proc(ProcessId pid) { return table_[pid]; }
  std::deque<ProcessId>& queue_for(SchedClass s);
  void enqueue(ProcessId pid);
  void make_runnable(ProcessId pid);
  void maybe_dispatch();
  void run_continuation(ProcessId pid);
  void start_slice();
  void on_slice_end();
  void preempt_current();
  void trim_slice_to_quantum();
  ProcessId pick_next();
  void account_busy(sim::Duration d) { busy_ += d; }

  sim::Duration jittered_quantum();

  sim::Engine& engine_;
  CpuParams params_;
  sim::Pcg32 rng_;
  std::vector<Process> table_;
  std::deque<ProcessId> run_queue_batch_;
  std::deque<ProcessId> run_queue_inter_;

  ProcessId current_ = kNoProcess;
  sim::EventId slice_event_ = 0;
  /// When the current compute segment started retiring work (steal() shifts
  /// this forward so interrupt time never counts as process progress).
  sim::SimTime seg_start_ = 0;
  /// Absolute time at which the current process's quantum runs out.
  sim::SimTime quantum_deadline_ = 0;
  sim::Duration slice_target_ = 0;  // work this slice should retire
  bool in_continuation_ = false;
  sim::Duration busy_ = 0;
  std::vector<std::function<void(ProcessId)>> dispatch_observers_;
  CpuStats stats_;
  obs::Collector stats_obs_;
};

}  // namespace now::os
