// now::obs — cluster-wide observability: the metrics registry.
//
// A component's counts live once, in its own `*Stats` struct (or the
// members it already keeps), which stats() returns with observability on
// or off.  The component owns a Collector: an RAII registration, in the
// constructing thread's registry, of a function that reports its fields
// as "<component>.<stats field>" ("xfs.reads", "am.stalled_sends").  The
// registry runs the collectors only when values are read — dump_json(),
// read() (so every Sampler tick), find() — and a destroyed component
// drops out of the next dump.  Live instances under one prefix (every
// Disk reports as "os.disk") are summed, or their distributions merged
// in registration order.  Native Gauges cover state with no struct
// behind it: the per-link queue gauges of the switched fabrics.
//
// Determinism contract: values only change in simulated events, dumps
// iterate in sorted path order, and no wall-clock value is recorded —
// two runs with the same seed produce byte-identical dumps.  The kill
// switch (set_enabled(false), or -DNOW_OBS_DISABLED) drops native updates
// and trace emission; collected counts do not depend on it.
//
// Threading model: registration and reads are engine-confined — one
// simulation, one thread — and obs::metrics() can be rebound per thread
// (set_thread_metrics), which is how now::exp gives each concurrent
// simulation its own registry.  A partitioned run (sim::ParallelEngine,
// which carries raw AM/RPC traffic only) is read between epochs or from
// exclusive global events; a collector whose struct several lanes write
// (the network's, the AM layer's) takes the lock those writers take.
// Native updates are relaxed atomics, safe from any lane.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "sim/stats.hpp"

namespace now::obs {

namespace detail {
/// Single process-wide kill switch shared by every native instrument
/// update and trace emission.  Atomic (relaxed) so concurrent simulations
/// may read it while a test toggles it; the toggle itself is not
/// synchronized with in-flight updates.
inline std::atomic<bool> g_enabled{true};
}  // namespace detail

/// True when native instruments and tracing should record.  Compiled to
/// `false` (and the guarded updates to nothing) under -DNOW_OBS_DISABLED.
inline bool enabled() {
#ifdef NOW_OBS_DISABLED
  return false;
#else
  return detail::g_enabled.load(std::memory_order_relaxed);
#endif
}

inline void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// Instantaneous level ("per-link queue delay"); last store wins.
class Gauge {
 public:
  void set(double v) {
    if (enabled()) v_.store(v, std::memory_order_relaxed);
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// One path's value as a reader sees it: a counter total, a gauge level,
/// or a distribution.
using Reading =
    std::variant<std::uint64_t, double, sim::Summary, sim::Histogram>;
using Readings = std::map<std::string, Reading, std::less<>>;

/// What a collector reports into.  Each call names one field of the
/// component's stats; the registry files it under "<prefix>.<field>" and
/// sums or merges it with every other live instance's value there.
class Sink {
 public:
  void counter(std::string_view field, std::uint64_t v);
  void gauge(std::string_view field, double v);
  void summary(std::string_view field, const sim::Summary& s);
  void histogram(std::string_view field, const sim::Histogram& h);

 private:
  friend class MetricsRegistry;
  Sink(Readings& out, std::string_view prefix) : out_(out), prefix_(prefix) {}

  template <typename T>
  void put(std::string_view field, const T& v);

  Readings& out_;
  std::string_view prefix_;
};

class MetricsRegistry;

/// A component's registration with the constructing thread's registry.
/// `fn` runs whenever values are read, reporting the component's fields
/// under `prefix`; destroying the Collector unregisters it.  Neither
/// copyable nor movable, so the component that captures itself in `fn`
/// cannot be moved out from under it.  Declare it last among the
/// component's members, so it goes before the state it reads.
class Collector {
 public:
  Collector(std::string prefix, std::function<void(Sink&)> fn);
  ~Collector();
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

 private:
  friend class MetricsRegistry;
  MetricsRegistry* registry_;
  std::string prefix_;
  std::function<void(Sink&)> fn_;
};

/// Registry keyed by dotted paths: native gauges plus the live components'
/// collectors.
///
/// gauge() creates a native gauge on first use and returns a stable
/// reference (node-based storage: handles never move).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Gauge& gauge(std::string_view path);

  /// Current value at `path`, native or collected, if it is of kind `T`:
  /// std::uint64_t for a counter, double for a gauge, sim::Summary or
  /// sim::Histogram for a distribution.  nullopt otherwise.
  template <typename T>
  std::optional<T> find(std::string_view path) const {
    Readings r = collect();
    const auto it = r.find(path);
    if (it == r.end()) return std::nullopt;
    T* v = std::get_if<T>(&it->second);
    return v != nullptr ? std::optional<T>(std::move(*v)) : std::nullopt;
  }

  /// Scalar reading of any path: counter value, gauge value, or the mean
  /// of a distribution.  False if nothing is registered at `path`.
  bool read(std::string_view path, double* out) const;

  /// Native gauges registered (collected paths not included).
  std::size_t size() const { return gauges_.size(); }

  /// Deterministic dumps of every path: sorted key order, no wall-clock
  /// anything.
  void dump_json(std::ostream& os) const;
  std::string dump_json() const;
  bool dump_json_to(const std::string& path) const;

 private:
  friend class Collector;

  /// Every path's value: native gauges, then each live collector.
  Readings collect() const;

  std::map<std::string, Gauge, std::less<>> gauges_;
  /// Live collectors in registration order (the merge order).
  std::vector<Collector*> collectors_;
};

/// The calling thread's active registry: its override if one is installed,
/// else the process-wide default.  Handles cached from it are confined to
/// the simulation that cached them.
MetricsRegistry& metrics();

/// Rebinds obs::metrics() on this thread to `r` (nullptr = back to the
/// process default) and returns the previous override.  The caller owns
/// `r`'s lifetime; exp::ScopedRunContext pairs install/restore with a run.
MetricsRegistry* set_thread_metrics(MetricsRegistry* r);

}  // namespace now::obs
