// Coscheduling (Ousterhout 1982): the global time-slice matrix.
//
// Each parallel job is a *gang* of processes spread over workstations.  The
// coscheduler rotates through gangs in globally aligned slots: during gang
// g's slot, its member process on every node is resumed and every other
// gang's member is suspended — so the constituents of a parallel program
// actually run in parallel and fine-grain communication completes in
// microseconds instead of waiting out a peer's local time slice (Figure 4).
//
// A per-node `skew` models imperfect clock alignment across the building —
// the knob the ablation bench turns.
#pragma once

#include <cstdint>
#include <vector>

#include "os/cpu.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace now::glunix {

class Coscheduler {
 public:
  struct Member {
    os::Cpu* cpu;
    os::ProcessId pid;
  };
  using Gang = std::vector<Member>;

  /// `slot` is the global time slice; `skew` bounds the random per-node lag
  /// in applying each slot switch (0 = perfectly aligned).
  Coscheduler(sim::Engine& engine, sim::Duration slot,
              sim::Duration skew = 0, std::uint64_t seed = 1)
      : engine_(engine), slot_(slot), skew_(skew),
        rng_(seed, /*stream=*/0x636f7363) {}
  Coscheduler(const Coscheduler&) = delete;
  Coscheduler& operator=(const Coscheduler&) = delete;

  /// Registers a gang; it starts suspended until its first slot.
  /// Returns the gang's index.
  std::size_t add_gang(Gang gang);

  /// Starts rotating.  Gangs added later join the rotation.
  void start();
  void stop();

 private:
  void tick();
  void apply(const Gang& gang, bool run);

  sim::Engine& engine_;
  sim::Duration slot_;
  sim::Duration skew_;
  sim::Pcg32 rng_;
  std::vector<Gang> gangs_;
  std::size_t current_ = 0;
  bool running_ = false;
  sim::EventId timer_ = 0;
};

}  // namespace now::glunix
