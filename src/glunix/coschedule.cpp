#include "glunix/coschedule.hpp"

#include <cassert>

namespace now::glunix {

std::size_t Coscheduler::add_gang(Gang gang) {
  assert(!gang.empty());
  // New gangs start suspended; their slot will resume them.
  for (const Member& m : gang) m.cpu->suspend(m.pid);
  gangs_.push_back(std::move(gang));
  return gangs_.size() - 1;
}

void Coscheduler::apply(const Gang& gang, bool run) {
  for (const Member& m : gang) {
    const sim::Duration lag =
        skew_ > 0 ? static_cast<sim::Duration>(
                        rng_.uniform(0.0, static_cast<double>(skew_)))
                  : 0;
    os::Cpu* cpu = m.cpu;
    const os::ProcessId pid = m.pid;
    if (lag == 0) {
      run ? cpu->resume(pid) : cpu->suspend(pid);
    } else {
      engine_.schedule_in(lag, [cpu, pid, run] {
        run ? cpu->resume(pid) : cpu->suspend(pid);
      });
    }
  }
}

void Coscheduler::start() {
  if (running_) return;
  running_ = true;
  tick();
}

void Coscheduler::stop() {
  running_ = false;
  if (timer_ != 0) {
    engine_.cancel(timer_);
    timer_ = 0;
  }
  // Let everything run freely again.
  for (const Gang& g : gangs_) apply(g, /*run=*/true);
}

void Coscheduler::tick() {
  timer_ = 0;
  if (!running_) return;

  // Suspend the gang whose slot just ended and resume the next one.
  if (!gangs_.empty()) {
    apply(gangs_[current_], /*run=*/false);
    current_ = (current_ + 1) % gangs_.size();
    apply(gangs_[current_], /*run=*/true);
  }
  timer_ = engine_.schedule_in(slot_, [this] { tick(); });
}

}  // namespace now::glunix
