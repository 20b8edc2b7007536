// now::obs — span tracing in simulated time.
//
// Spans and instant events are recorded into a bounded ring buffer and
// exported as Chrome trace-event JSON, loadable in Perfetto (ui.perfetto.dev)
// or chrome://tracing.  The mapping puts one *process* row per workstation
// (pid = node id) and one *thread* track per module (tid = interned track:
// "net", "proto", "xfs", "glunix", ...), so a trace reads as "what was every
// layer of node 7 doing at t = 1.83 s".
//
// Timestamps are simulated time — the tracer holds a pointer to the engine's
// clock (set_clock), never the wall clock, so traces are as deterministic as
// the simulation itself.  Most instrumentation sites use the explicit
// complete(node, track, name, start, end) form because interesting intervals
// (message lifetimes, page-fault service, migrations) span many callbacks;
// the RAII Span covers the lexically scoped cases.
//
// Everything is a no-op until enable() is called.  tracer(), enabled() and
// the enabled test of complete()/instant() are inline, so an untraced site
// pays a few loads and a branch and makes no call.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/spinlock.hpp"
#include "sim/time.hpp"

namespace now::sim {
class Engine;
}

namespace now::obs {

using TrackId = std::uint16_t;

/// Events whose node is the cluster itself, not a workstation (the GLUnix
/// master's global decisions).
inline constexpr std::uint32_t kClusterNode = 0xFFFFFFFFu;

class Tracer {
 public:
  /// Starts recording, with room for `capacity` events; once full, the ring
  /// overwrites the oldest events (dropped() counts them).
  void enable(std::size_t capacity = 1u << 20);
  void disable() { recording_ = false; }
  bool enabled() const { return recording_ && obs::enabled(); }
  void clear();

  /// Binds the simulated clock used by instant()/Span.  The explicit-time
  /// overloads work without one.
  void set_clock(const sim::Engine* engine) { clock_ = engine; }
  sim::SimTime clock_now() const;

  /// Interns a module track name ("net", "xfs", ...).  Stable for the
  /// tracer's lifetime; callable before enable().
  TrackId track(std::string_view module);

  /// Records a completed span [start, end] on `node`'s `track`.  The
  /// enabled test is inline, so an untraced site makes no call.
  void complete(std::uint32_t node, TrackId track, std::string_view name,
                sim::SimTime start, sim::SimTime end) {
    if (enabled()) record_complete(node, track, name, start, end);
  }

  /// Records a point event at the bound clock's current time / at `at`.
  void instant(std::uint32_t node, TrackId track, std::string_view name) {
    if (enabled()) record_instant(node, track, name, clock_now());
  }
  void instant_at(std::uint32_t node, TrackId track, std::string_view name,
                  sim::SimTime at) {
    if (enabled()) record_instant(node, track, name, at);
  }

  std::size_t size() const { return events_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  /// Chrome trace-event JSON ({"traceEvents": [...]}), with process/thread
  /// metadata naming the node and module tracks.  Event order is the
  /// deterministic recording order.
  void export_chrome_json(std::ostream& os) const;
  bool export_chrome_json(const std::string& path) const;

 private:
  struct Event {
    enum class Phase : std::uint8_t { kComplete, kInstant };
    Phase phase = Phase::kInstant;
    TrackId track = 0;
    std::uint32_t node = 0;
    sim::SimTime ts = 0;
    sim::Duration dur = 0;
    std::string name;
  };

  void record_complete(std::uint32_t node, TrackId track,
                       std::string_view name, sim::SimTime start,
                       sim::SimTime end);
  void record_instant(std::uint32_t node, TrackId track,
                      std::string_view name, sim::SimTime at);
  void push(Event e);

  bool recording_ = false;
  const sim::Engine* clock_ = nullptr;
  std::vector<Event> events_;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  // next overwrite position once the ring is full
  std::uint64_t dropped_ = 0;
  std::vector<std::string> tracks_;
  // Serializes ring pushes and track interning: the lanes of one partitioned
  // simulation share a single tracer.  Uncontended (serial runs) this is one
  // atomic exchange per recorded event, nothing per untraced site.
  sim::SpinLock lock_;
};

namespace detail {
/// The process-wide default tracer.  Constant-initialized, so it exists
/// before any static constructor runs.
extern Tracer g_process_tracer;
/// This thread's override, or nullptr.
inline constinit thread_local Tracer* t_tracer = nullptr;
}  // namespace detail

/// The calling thread's active tracer: its override if one is installed,
/// else the process-wide default.  Inline, like Tracer::enabled(), so an
/// untraced site makes no call.  Recording (push/track) is
/// spinlocked so the lanes of a partitioned run can share one tracer, but
/// enable/clear/export remain single-threaded; concurrent *simulations*
/// must each run against their own tracer — which the per-thread override
/// (and exp::ScopedRunContext, which installs it) provides.
inline Tracer& tracer() {
  Tracer* t = detail::t_tracer;
  return t != nullptr ? *t : detail::g_process_tracer;
}

/// Rebinds obs::tracer() on this thread to `t` (nullptr = back to the
/// process default) and returns the previous override.  The caller owns
/// `t`'s lifetime.
Tracer* set_thread_tracer(Tracer* t);

/// Lexically scoped span on the process-wide tracer, stamped with the bound
/// simulated clock.  Nest freely; Perfetto renders the nesting.
class Span {
 public:
  Span(std::uint32_t node, TrackId track, std::string_view name)
      : node_(node), track_(track) {
    if (tracer().enabled()) {
      open_ = true;
      start_ = tracer().clock_now();
      name_ = name;
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  /// Closes the span early (idempotent).
  void end() {
    if (!open_) return;
    open_ = false;
    tracer().complete(node_, track_, name_, start_, tracer().clock_now());
  }

 private:
  std::uint32_t node_;
  TrackId track_;
  bool open_ = false;
  sim::SimTime start_ = 0;
  std::string name_;
};

}  // namespace now::obs
