// Shared formatting helpers for the reproduction benches.
//
// Every bench prints the paper's reported numbers next to the reproduced
// ones so the comparison is visible in the raw output (EXPERIMENTS.md
// records the same pairs).
// Passing `--json <path>` to a bench additionally writes the reproduced
// numbers as a machine-readable report in the BENCH_engine.json shape
// ({benchmark, units, machine, method, results, notes}) via JsonReport.
//
// Sweep-shaped benches additionally take:
//   --jobs N         run independent sweep points on N worker threads via
//                    now::exp (default: one per hardware thread; 1 = the
//                    serial path, no pool).  stdout is byte-identical for
//                    every N: points compute results on workers, the main
//                    thread formats rows in index order.
//   --sweep-json P   write per-point wall-clock and the aggregate speedup
//                    (busy_ms / wall_ms) as a JsonReport-shaped file.
//   --seed S         base seed for exp::derive_seed (default 1).
//
// A value flag given as the last argument (see flag_value), or a numeric
// flag whose value does not parse (see numeric_flag), exits with status 2
// and names the flag on stderr, instead of running a default; a redirected
// stdout stays empty (see refuse_flag).
#pragma once

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "obs/json.hpp"

namespace now::bench {

inline void heading(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

inline void row(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
}

inline void note(const std::string& text) {
  std::printf("  note: %s\n", text.c_str());
}

namespace detail {
inline void append_json_number(std::string& out, double v) {
  if (std::isfinite(v) && v == std::floor(v) &&
      std::fabs(v) < 9.0e15) {  // integral and exactly representable
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld",
                  static_cast<long long>(v));
    out += buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(v) ? v : 0.0);
    out += buf;
  }
}
}  // namespace detail

/// Ends the bench on a refused flag with status 2, after the caller has
/// named the flag on stderr.  std::_Exit does not flush stdio, so the
/// heading a bench prints before it parses its flags, still in a redirected
/// stdout's buffer, is dropped: the refused run writes no report at all.
[[noreturn]] inline void refuse_flag() { std::_Exit(2); }

/// The argument after flag `flag` (`--flag V`; the first occurrence wins),
/// or nullptr when the flag is absent.  A flag given as the last argument
/// has no value: that prints the flag to stderr and exits with status 2,
/// so `--json` at the end of a command line never runs without its report.
inline const char* flag_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) != 0) continue;
    if (i + 1 == argc) {
      std::fprintf(stderr, "error: %s expects a value\n", flag);
      refuse_flag();
    }
    return argv[i + 1];
  }
  return nullptr;
}

/// Machine-readable bench results, in the shape of BENCH_engine.json:
/// {"benchmark", "units", "machine", "method", "results": {name: {field:
/// value}}, "notes": [...]}.  Construct it from main's argv: it activates
/// only when `--json <path>` was passed, and writes the file when write()
/// is called (or at destruction).  Insertion order of results and fields
/// is preserved, so output is deterministic for a deterministic bench.
class JsonReport {
 public:
  JsonReport(int argc, char** argv, std::string benchmark,
             std::string units)
      : benchmark_(std::move(benchmark)), units_(std::move(units)) {
    if (const char* p = flag_value(argc, argv, "--json")) path_ = p;
    default_machine();
  }

  /// Reports to a known path (the Sweep helper's --sweep-json file).
  JsonReport(std::string path, std::string benchmark, std::string units)
      : path_(std::move(path)), benchmark_(std::move(benchmark)),
        units_(std::move(units)) {
    default_machine();
  }
  ~JsonReport() { write(); }
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  bool active() const { return !path_.empty(); }
  void machine(std::string m) { machine_ = std::move(m); }
  void method(std::string m) { method_ = std::move(m); }
  void note(std::string text) { notes_.push_back(std::move(text)); }

  /// Sets results[result][field] = v (fields merge into an existing
  /// result row of the same name).
  void value(const std::string& result, const std::string& field,
             double v) {
    for (auto& r : results_) {
      if (r.name == result) {
        r.fields.emplace_back(field, v);
        return;
      }
    }
    results_.push_back({result, {{field, v}}});
  }

  /// Writes the report if `--json` was given; true on success or when
  /// inactive.  Idempotent: the destructor's write is a no-op after a
  /// successful explicit call.
  bool write() {
    if (path_.empty() || written_) return true;
    std::string out = "{\n";
    const auto field = [&out](const char* key, const std::string& v,
                              bool comma) {
      out += "  \"";
      out += key;
      out += "\": \"";
      obs::append_json_escaped(out, v);
      out += comma ? "\",\n" : "\"\n";
    };
    field("benchmark", benchmark_, true);
    field("units", units_, true);
    field("machine", machine_, true);
    field("method", method_, true);
    out += "  \"results\": {";
    for (std::size_t i = 0; i < results_.size(); ++i) {
      out += i ? ",\n    \"" : "\n    \"";
      obs::append_json_escaped(out, results_[i].name);
      out += "\": {";
      const auto& fields = results_[i].fields;
      for (std::size_t j = 0; j < fields.size(); ++j) {
        out += j ? ", \"" : "\"";
        obs::append_json_escaped(out, fields[j].first);
        out += "\": ";
        detail::append_json_number(out, fields[j].second);
      }
      out += "}";
    }
    out += results_.empty() ? "},\n" : "\n  },\n";
    out += "  \"notes\": [";
    for (std::size_t i = 0; i < notes_.size(); ++i) {
      out += i ? ",\n    \"" : "\n    \"";
      obs::append_json_escaped(out, notes_[i]);
      out += "\"";
    }
    out += notes_.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    std::ofstream f(path_, std::ios::trunc);
    if (!f) return false;
    f << out;
    written_ = f.good();
    return written_;
  }

 private:
  struct Result {
    std::string name;
    std::vector<std::pair<std::string, double>> fields;
  };

  void default_machine() {
#if defined(__clang__)
    machine_ = std::string("clang ") + __clang_version__;
#elif defined(__VERSION__)
    machine_ = std::string("g++ ") + __VERSION__;
#endif
  }

  std::string path_;
  std::string benchmark_;
  std::string units_;
  std::string machine_;
  std::string method_;
  std::vector<Result> results_;
  std::vector<std::string> notes_;
  bool written_ = false;
};

/// The value of numeric flag `flag` (`--flag V`), or `fallback` when the
/// flag is absent.  V must be a number of type T from its first byte to
/// its last; anything else ("abc", "12x", "-1" for an unsigned, an empty
/// string, out of range) prints the flag and the value to stderr and
/// exits with status 2, so a typo never silently runs the default.
template <typename T>
T numeric_flag(int argc, char** argv, const char* flag, T fallback) {
  const char* v = flag_value(argc, argv, flag);
  if (v == nullptr) return fallback;
  const char* end = v + std::strlen(v);
  T out{};
  const auto [stop, ec] = std::from_chars(v, end, out);
  if (v == end || ec != std::errc{} || stop != end) {
    std::fprintf(stderr, "error: %s expects a number, got '%s'\n", flag, v);
    refuse_flag();
  }
  return out;
}

/// `--jobs N` (0 = hardware concurrency), or 0 when absent.
inline unsigned parse_jobs(int argc, char** argv) {
  return numeric_flag<unsigned>(argc, argv, "--jobs", 0);
}

/// `--nodes N`: caller-interpreted cluster-size override shared by the
/// building-scale benches (0 when absent).  Scaled benches treat it as a
/// cap on their size axis — see cap_axis — so CI can run the same binary
/// at 256 nodes that EXPERIMENTS.md runs at 1024+.
inline std::uint32_t parse_nodes(int argc, char** argv) {
  return numeric_flag<std::uint32_t>(argc, argv, "--nodes", 0);
}

/// `--trace <path>`: a recorded trace to replay (native fs or nfsdump-
/// style text, auto-detected by now::replay) instead of — or, for benches
/// that print both, next to — the synthetic generator.  Empty when absent.
/// Shared by the replay-capable benches (bench_table3_coopcache,
/// bench_xfs_vs_central, bench_serving); each prints its replay section
/// only when the flag is given, so default stdout is unchanged.
inline std::string parse_trace(int argc, char** argv) {
  const char* v = flag_value(argc, argv, "--trace");
  return v != nullptr ? v : std::string();
}

/// `--trace-scale S` (default 1): recorded timestamps are divided by S, so
/// 2 replays the trace at twice the recorded rate.  Values <= 0 fall back
/// to 1.
inline double parse_trace_scale(int argc, char** argv) {
  const double s = numeric_flag<double>(argc, argv, "--trace-scale", 1.0);
  return s > 0 ? s : 1.0;
}

/// Applies a --nodes cap to a size axis: sizes above the cap are dropped;
/// if the cap removes everything (or matches nothing exactly), the cap
/// itself becomes a point, so `--nodes 256` always measures 256.  cap = 0
/// (flag absent) leaves the axis untouched.
inline std::vector<std::uint32_t> cap_axis(std::vector<std::uint32_t> sizes,
                                           std::uint32_t cap) {
  if (cap == 0) return sizes;
  std::vector<std::uint32_t> out;
  for (const std::uint32_t s : sizes) {
    if (s <= cap) out.push_back(s);
  }
  if (out.empty() || out.back() != cap) out.push_back(cap);
  return out;
}

/// Drives a bench's sweep points through now::exp::run_sweep behind the
/// --jobs / --sweep-json / --seed flags.
///
/// Each run() call hands every point a fresh exp::RunContext (derived
/// seed, private metrics and tracer) and returns the results in point
/// order; the bench then formats its rows from them on the main thread,
/// which is what keeps stdout byte-identical across --jobs values.  Sweep
/// itself never prints.  Wall-clock per point and the aggregate speedup
/// (busy_ms / wall_ms — how much serial compute the elapsed time bought)
/// go to the --sweep-json report only, since they are nondeterministic.
class Sweep {
 public:
  Sweep(int argc, char** argv, std::string benchmark)
      : benchmark_(std::move(benchmark)), jobs_(parse_jobs(argc, argv)),
        base_seed_(numeric_flag<std::uint64_t>(argc, argv, "--seed", 1)) {
    if (const char* p = flag_value(argc, argv, "--sweep-json")) path_ = p;
  }
  ~Sweep() { write(); }
  Sweep(const Sweep&) = delete;
  Sweep& operator=(const Sweep&) = delete;

  /// Workers the sweep will use (--jobs, default one per hardware thread).
  unsigned jobs() const { return now::exp::effective_jobs(jobs_); }
  std::uint64_t base_seed() const { return base_seed_; }

  /// Runs fn(ctx) for one point per entry of `names` (the point labels in
  /// the sweep report) and returns the per-point results in order.
  /// Callable several times; later calls continue the task-index space.
  template <typename Fn>
  auto run(const std::vector<std::string>& names, Fn&& fn) {
    now::exp::SweepOptions opt;
    opt.jobs = jobs_;
    opt.base_seed = base_seed_;
    opt.first_index = next_index_;
    std::vector<double> wall;
    opt.wall_ms = &wall;
    const auto t0 = std::chrono::steady_clock::now();
    auto results = now::exp::run_sweep(names.size(), fn, opt);
    wall_ms_ += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    for (std::size_t i = 0; i < names.size(); ++i) {
      busy_ms_ += wall[i];
      points_.emplace_back(names[i], wall[i]);
    }
    next_index_ += names.size();
    return results;
  }

  /// Writes the --sweep-json report (no-op without the flag; idempotent).
  void write() {
    if (path_.empty() || written_) return;
    written_ = true;
    JsonReport r(path_, benchmark_ + ".sweep", "wall_ms");
    r.method("now::exp::run_sweep; speedup = busy_ms / wall_ms (serial "
             "compute bought per elapsed unit)");
    for (const auto& [name, ms] : points_) r.value(name, "wall_ms", ms);
    r.value("aggregate", "jobs", jobs());
    r.value("aggregate", "hardware_concurrency",
            std::thread::hardware_concurrency());
    r.value("aggregate", "points", static_cast<double>(points_.size()));
    r.value("aggregate", "wall_ms", wall_ms_);
    r.value("aggregate", "busy_ms", busy_ms_);
    r.value("aggregate", "speedup", wall_ms_ > 0 ? busy_ms_ / wall_ms_ : 0);
    r.note("wall times are nondeterministic; every simulated result and "
           "stdout byte is --jobs-invariant");
    r.write();
  }

 private:
  std::string benchmark_;
  unsigned jobs_ = 0;
  std::uint64_t base_seed_ = 1;
  std::string path_;
  std::size_t next_index_ = 0;
  double wall_ms_ = 0;
  double busy_ms_ = 0;
  std::vector<std::pair<std::string, double>> points_;
  bool written_ = false;
};

}  // namespace now::bench
