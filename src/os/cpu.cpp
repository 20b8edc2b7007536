#include "os/cpu.hpp"

#include <algorithm>
#include <cassert>

namespace now::os {

namespace {
const std::string kUnknownName = "?";
}

Cpu::Cpu(sim::Engine& engine, CpuParams params)
    : engine_(engine), params_(params),
      rng_(params.seed, /*stream=*/0x637075),
      stats_obs_("os.cpu", [this](obs::Sink& s) {
        s.counter("dispatches", stats_.dispatches);
        s.counter("preemptions", stats_.preemptions);
        s.summary("run_queue_len", stats_.run_queue_len);
      }) {
  assert(params_.quantum > 0 && params_.mflops > 0);
  assert(params_.quantum_jitter >= 0.0 && params_.quantum_jitter < 1.0);
}

sim::Duration Cpu::jittered_quantum() {
  if (params_.quantum_jitter == 0.0) return params_.quantum;
  const double f =
      1.0 + params_.quantum_jitter * (2.0 * rng_.next_double() - 1.0);
  return static_cast<sim::Duration>(static_cast<double>(params_.quantum) *
                                    f);
}

std::deque<ProcessId>& Cpu::queue_for(SchedClass s) {
  return s == SchedClass::kInteractive ? run_queue_inter_ : run_queue_batch_;
}

ProcessId Cpu::spawn(std::string name, SchedClass sched, Continuation entry) {
  const auto pid = static_cast<ProcessId>(table_.size());
  table_.push_back(Process{std::move(name), sched, PState::kReady,
                           /*suspended=*/false,
                           /*pending_work=*/0, std::move(entry)});
  enqueue(pid);
  // Defer the dispatch one event so the caller can finish recording the
  // returned pid before the entry continuation can possibly run.
  engine_.schedule_in(0, [this] { maybe_dispatch(); });
  return pid;
}

void Cpu::enqueue(ProcessId pid) {
  proc(pid).state = PState::kReady;
  queue_for(proc(pid).sched).push_back(pid);
}

std::size_t Cpu::runnable_count() const {
  return run_queue_batch_.size() + run_queue_inter_.size() +
         (current_ != kNoProcess ? 1 : 0);
}

bool Cpu::exists(ProcessId pid) const {
  return pid < table_.size() && table_[pid].state != PState::kDead;
}

bool Cpu::blocked(ProcessId pid) const {
  return pid < table_.size() && table_[pid].state == PState::kBlocked;
}

const std::string& Cpu::name(ProcessId pid) const {
  return pid < table_.size() ? table_[pid].name : kUnknownName;
}

double Cpu::utilization() const {
  const sim::SimTime t = engine_.now();
  if (t == 0) return 0.0;
  return static_cast<double>(busy_) / static_cast<double>(t);
}

ProcessId Cpu::pick_next() {
  if (!run_queue_inter_.empty()) {
    const ProcessId pid = run_queue_inter_.front();
    run_queue_inter_.pop_front();
    return pid;
  }
  if (!run_queue_batch_.empty()) {
    const ProcessId pid = run_queue_batch_.front();
    run_queue_batch_.pop_front();
    return pid;
  }
  return kNoProcess;
}

void Cpu::maybe_dispatch() {
  while (current_ == kNoProcess) {
    const ProcessId pid = pick_next();
    if (pid == kNoProcess) return;
    Process& p = proc(pid);
    if (p.state == PState::kDead || p.suspended) continue;  // stale entry
    assert(p.state == PState::kReady);
    current_ = pid;
    p.state = PState::kRunning;
    quantum_deadline_ = engine_.now() + jittered_quantum();
    ++stats_.dispatches;
    stats_.run_queue_len.add(static_cast<double>(run_queue_batch_.size() +
                                                 run_queue_inter_.size()));
    for (const auto& obs : dispatch_observers_) obs(pid);
    if (current_ != pid) continue;  // an observer killed/blocked it
    if (p.pending_work == 0) {
      // Control transfer only: run the continuation now.  It will normally
      // request compute, block, or exit.
      run_continuation(pid);
    } else {
      start_slice();
    }
  }
}

void Cpu::run_continuation(ProcessId pid) {
  Process& p = proc(pid);
  assert(p.cont && "process resumed with no continuation");
  Continuation fn = std::move(p.cont);
  p.cont = nullptr;
  in_continuation_ = true;
  fn();
  in_continuation_ = false;

  if (current_ != pid) return;  // continuation exited/killed this process
  Process& q = proc(pid);
  switch (q.state) {
    case PState::kRunning:
      if (q.pending_work > 0) {
        start_slice();
      } else {
        // A continuation that neither computes, blocks, nor exits is done.
        current_ = kNoProcess;
        q.state = PState::kDead;
        q.cont = nullptr;
      }
      break;
    case PState::kBlocked:
    case PState::kReady:  // blocked and immediately re-woken inside cont
      current_ = kNoProcess;
      break;
    case PState::kDead:
      current_ = kNoProcess;
      break;
  }
}

void Cpu::start_slice() {
  Process& p = proc(current_);
  assert(p.pending_work > 0);
  const bool others =
      !run_queue_batch_.empty() || !run_queue_inter_.empty();
  sim::Duration target = p.pending_work;
  if (others) {
    const sim::Duration budget = quantum_deadline_ - engine_.now();
    if (budget <= 0) {
      // Quantum exhausted across continuation segments: yield.
      p.state = PState::kReady;
      queue_for(p.sched).push_back(current_);
      current_ = kNoProcess;
      maybe_dispatch();
      return;
    }
    target = std::min(target, budget);
  }
  slice_target_ = target;
  seg_start_ = engine_.now() + params_.context_switch;
  account_busy(params_.context_switch);
  slice_event_ = engine_.schedule_at(seg_start_ + target,
                                     [this] { on_slice_end(); });
}

void Cpu::on_slice_end() {
  slice_event_ = 0;
  assert(current_ != kNoProcess);
  Process& p = proc(current_);
  p.pending_work -= slice_target_;
  account_busy(slice_target_);
  assert(p.pending_work >= 0);
  if (p.pending_work == 0) {
    run_continuation(current_);
    if (current_ == kNoProcess) maybe_dispatch();
  } else {
    // Quantum expired with work left: round-robin to the tail.
    p.state = PState::kReady;
    queue_for(p.sched).push_back(current_);
    current_ = kNoProcess;
    maybe_dispatch();
  }
}

void Cpu::compute(ProcessId pid, sim::Duration work, Continuation then) {
  assert(in_continuation_ && pid == current_ &&
         "compute() must be called from the process's own continuation");
  Process& p = proc(pid);
  p.pending_work = std::max<sim::Duration>(work, 1);
  p.cont = std::move(then);
}

void Cpu::compute_flops(ProcessId pid, double flops, Continuation then) {
  const double seconds = flops / (params_.mflops * 1e6);
  compute(pid, sim::from_sec(seconds), std::move(then));
}

void Cpu::block(ProcessId pid, Continuation then) {
  assert(in_continuation_ && pid == current_ &&
         "block() must be called from the process's own continuation");
  Process& p = proc(pid);
  p.state = PState::kBlocked;
  p.pending_work = 0;
  p.cont = std::move(then);
}

void Cpu::wake(ProcessId pid) {
  if (!exists(pid)) return;
  Process& p = proc(pid);
  if (p.state != PState::kBlocked) return;  // already runnable
  if (p.suspended) {
    // Remember the wake; resume() will enqueue.
    p.state = PState::kReady;
    return;
  }
  make_runnable(pid);
}

void Cpu::make_runnable(ProcessId pid) {
  Process& p = proc(pid);
  enqueue(pid);
  if (current_ == kNoProcess) {
    if (!in_continuation_) maybe_dispatch();
    // If inside a continuation, dispatch happens when it unwinds.
    return;
  }
  // Interactive wakeups preempt batch work immediately — the "fast and
  // predictable interactive performance" guarantee of the local OS.
  if (p.sched == SchedClass::kInteractive &&
      proc(current_).sched == SchedClass::kBatch && !in_continuation_) {
    preempt_current();
    return;
  }
  // Same-class wake: the running process may hold an oversized slice
  // granted while it was alone.  Trim it back to the quantum boundary so
  // the newcomer is served with round-robin latency, not slice latency.
  if (!in_continuation_ && slice_event_ != 0) trim_slice_to_quantum();
}

void Cpu::trim_slice_to_quantum() {
  assert(current_ != kNoProcess && slice_event_ != 0);
  const sim::SimTime slice_end = seg_start_ + slice_target_;
  if (slice_end <= quantum_deadline_) return;  // already within quantum
  if (quantum_deadline_ <= engine_.now()) {
    // Quantum already exhausted: rotate right now.
    engine_.cancel(slice_event_);
    slice_event_ = 0;
    Process& p = proc(current_);
    sim::Duration retired = engine_.now() - seg_start_;
    retired = std::clamp<sim::Duration>(retired, 0, slice_target_);
    p.pending_work -= retired;
    account_busy(retired);
    p.state = PState::kReady;
    queue_for(p.sched).push_back(current_);
    current_ = kNoProcess;
    maybe_dispatch();
    return;
  }
  slice_target_ = quantum_deadline_ - seg_start_;
  assert(slice_target_ > 0);
  // Same closure, earlier deadline: move the pending event in place instead
  // of cancel + schedule churn.
  slice_event_ = engine_.reschedule(slice_event_, quantum_deadline_);
  assert(slice_event_ != 0);
}

void Cpu::preempt_current() {
  assert(current_ != kNoProcess && slice_event_ != 0);
  ++stats_.preemptions;
  engine_.cancel(slice_event_);
  slice_event_ = 0;
  Process& p = proc(current_);
  // Work retired so far in this segment (steal() pushes seg_start_ forward,
  // so elapsed-minus-stolen is already folded in).
  sim::Duration retired = engine_.now() - seg_start_;
  retired = std::clamp<sim::Duration>(retired, 0, slice_target_);
  p.pending_work -= retired;
  account_busy(retired);
  p.state = PState::kReady;
  queue_for(p.sched).push_front(current_);  // resumes next among its class
  current_ = kNoProcess;
  maybe_dispatch();
}

void Cpu::suspend(ProcessId pid) {
  if (!exists(pid)) return;
  Process& p = proc(pid);
  if (p.suspended) return;
  p.suspended = true;
  if (pid == current_) {
    assert(!in_continuation_ && "cannot suspend from its own continuation");
    assert(slice_event_ != 0);
    engine_.cancel(slice_event_);
    slice_event_ = 0;
    sim::Duration retired = engine_.now() - seg_start_;
    retired = std::clamp<sim::Duration>(retired, 0, slice_target_);
    p.pending_work -= retired;
    account_busy(retired);
    p.state = PState::kReady;  // runnable again once resumed
    current_ = kNoProcess;
    maybe_dispatch();
    return;
  }
  if (p.state == PState::kReady) {
    auto& q = queue_for(p.sched);
    q.erase(std::remove(q.begin(), q.end(), pid), q.end());
  }
  // Blocked processes just carry the flag; wake() will park them as
  // kReady-suspended until resume().
}

void Cpu::resume(ProcessId pid) {
  if (!exists(pid)) return;
  Process& p = proc(pid);
  if (!p.suspended) return;
  p.suspended = false;
  if (p.state == PState::kReady) make_runnable(pid);
}

bool Cpu::suspended(ProcessId pid) const {
  return pid < table_.size() && table_[pid].state != PState::kDead &&
         table_[pid].suspended;
}

void Cpu::exit(ProcessId pid) {
  assert(in_continuation_ && pid == current_);
  Process& p = proc(pid);
  p.state = PState::kDead;
  p.cont = nullptr;
  p.pending_work = 0;
  current_ = kNoProcess;
  // Dispatch resumes when the continuation unwinds (run_continuation).
}

void Cpu::kill(ProcessId pid) {
  if (!exists(pid)) return;
  Process& p = proc(pid);
  if (pid == current_) {
    if (slice_event_ != 0) {
      engine_.cancel(slice_event_);
      slice_event_ = 0;
      sim::Duration retired = engine_.now() - seg_start_;
      retired = std::clamp<sim::Duration>(retired, 0, slice_target_);
      account_busy(retired);
    }
    current_ = kNoProcess;
    p.state = PState::kDead;
    p.cont = nullptr;
    if (!in_continuation_) maybe_dispatch();
    return;
  }
  if (p.state == PState::kReady) {
    auto& q = queue_for(p.sched);
    q.erase(std::remove(q.begin(), q.end(), pid), q.end());
  }
  p.state = PState::kDead;
  p.cont = nullptr;
  p.pending_work = 0;
}

void Cpu::steal(sim::Duration t) {
  assert(t >= 0);
  account_busy(t);
  if (current_ == kNoProcess || slice_event_ == 0) return;
  // Delay the running process: shift its segment and its quantum, pushing
  // the pending slice-end event out in place (reschedule clamps to now).
  seg_start_ += t;
  quantum_deadline_ += t;
  slice_event_ = engine_.reschedule(slice_event_, seg_start_ + slice_target_);
  assert(slice_event_ != 0);
}

void Cpu::reset() {
  if (slice_event_ != 0) {
    engine_.cancel(slice_event_);
    slice_event_ = 0;
  }
  current_ = kNoProcess;
  run_queue_batch_.clear();
  run_queue_inter_.clear();
  for (auto& p : table_) {
    p.state = PState::kDead;
    p.cont = nullptr;
    p.pending_work = 0;
  }
}

}  // namespace now::os
