// Shared plumbing for the repository benchmark: options, per-repetition
// results, the result digest, and the in-memory span recorder used by the
// traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Host seconds of repetitions to measure (at least kMinReps run).
  double seconds = 10.0;
  /// Traced run: alternate untraced and span-recording repetitions.
  bool trace = false;
  /// rpc_lanes partition lanes (1 = the serial engine).
  unsigned lanes = 2;
  /// Simulated horizon override in ms for the engine workloads (0 = the
  /// workload's own); the benchmark's tests use it for short runs.
  std::int64_t sim_ms = 0;
  /// coop_replay: the native fs trace to replay, and its record count.
  std::string trace_file;
  std::uint64_t trace_records = 0;
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string spans_out;
};

/// FNV-1a over 64-bit words: any change in any simulated result flips it.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add_double(double d);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// A named value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Spans recorded around the benchmark's own calls into each layer.  Kept
/// in memory and written once, at the end.  Disabled, begin()/end() cost
/// one branch.
class Spans {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its handle.
  int begin(const char* name);
  void end(int handle);
  /// A sample of layer counters at the current host instant, tagged with
  /// the simulated time it was taken at.
  void sample(double sim_ms, const std::vector<std::pair<const char*,
                                                         double>>& values);

  /// Self time per span name (duration minus the part its children
  /// cover), summed over the spans recorded in [first, last).
  std::map<std::string, double> self_seconds(std::size_t first,
                                             std::size_t last) const;
  /// Total duration per span name over the spans in [first, last).
  std::map<std::string, double> total_seconds(std::size_t first,
                                               std::size_t last) const;
  std::size_t size() const { return spans_.size(); }

  /// Chrome trace-event JSON (load in Perfetto or chrome://tracing).
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct Sample {
    std::int64_t at_ns;
    double sim_ms;
    std::vector<std::pair<const char*, double>> values;
  };
  std::int64_t now_ns() const;

  bool enabled_ = false;
  int open_ = -1;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<Sample> samples_;
};

/// RAII span; a no-op while the recorder is disabled.
class SpanScope {
 public:
  SpanScope(Spans& s, const char* name) : s_(s), h_(s.begin(name)) {}
  ~SpanScope() { s_.end(h_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans& s_;
  int h_;
};

/// One repetition of a workload: a fresh set-up and a full run of the same
/// seeded inputs.  Simulated results are identical in every repetition.
struct RepResult {
  double setup_s = 0.0;  // host: construction up to the first timed op
  double run_s = 0.0;    // host: the timed operations
  std::uint64_t ops = 0; // operations attempted
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  /// Checks that fail because of a known library bug: printed on every run
  /// but not failing it, so the benchmark still runs on every seed.
  std::vector<std::string> unenforced_failures;
  std::uint64_t digest = 0;
  std::uint64_t inputs_digest = 0;
  /// Simulated end-to-end results (identical across repetitions).
  Metrics sim;
  /// Per-layer counters (identical across repetitions).
  Metrics counts;
  /// Host seconds of individual set-up steps (core.build_s, ...).
  std::map<std::string, double> setup_steps;
  /// Span names whose total host time is divided by a count to give a
  /// per-call cost: span name -> (metric name, count).
  std::map<std::string, std::pair<std::string, double>> per_call;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// Median of `v` (0 when empty).
double median(std::vector<double> v);
/// Distance between the first and third quartiles of `v` over its median,
/// with Python's statistics.quantiles(v, n=4); 0 with fewer than two values.
double quartile_spread(std::vector<double> v);

/// Host seconds of a fixed reference kernel shaped like the simulator's hot
/// paths: hash-map updates and a binary heap (compute-bound), then random
/// lookups in a table larger than the L2 cache (memory-bound).  It does not
/// touch the library, so it measures the machine, not the code under test.
double reference_kernel_seconds();
/// The kernel's time on an idle machine of the kind the baseline was
/// recorded on; host times are reported scaled to it.
inline constexpr double kReferenceKernelSeconds = 0.060;

/// Host seconds of a fixed two-thread kernel shaped like
/// sim::ParallelEngine's epoch barrier: rounds in which a second thread is
/// woken through a condition variable, both threads do a few hash-map and
/// heap updates, and the first waits for the second.  It measures how fast
/// the host wakes a thread, which the single-threaded kernel cannot see;
/// rpc_lanes, whose two lanes meet at a barrier every epoch, is scaled by
/// it.  Like the other kernel it does not touch the library.
double handoff_kernel_seconds();
inline constexpr int kHandOffRounds = 2'000;
inline constexpr double kReferenceHandOffSeconds = 0.040;

RepResult run_serve_xfs(const Options& opt, Spans& spans);
RepResult run_serve_building(const Options& opt, Spans& spans);
RepResult run_coop_replay(const Options& opt, Spans& spans);
RepResult run_rpc_lanes(const Options& opt, Spans& spans);

/// Generates coop_replay's Table-3-shaped trace from `seed` and writes it
/// to `path`; prints the record count, timing and input digest.
int generate_coop_trace(std::uint64_t seed, const std::string& path);

}  // namespace perfbench
