// perfbench — one workload of the repository benchmark per process.
//
//   perfbench <workload> --seed N --seconds S --trace 0|1
//             [--lanes L] [--sim-ms M] [--trace-file P --trace-records R]
//             [--spans-out P]
//   perfbench gen_trace --seed N --out P
//
// Workloads: serve_xfs, serve_building, coop_replay, rpc_lanes.  Each
// repetition builds the workload afresh from the seed and runs it to the
// end; repetitions continue until S host seconds have passed (at least
// three).  Every repetition must produce the same simulated results.  The
// traced run alternates untraced and span-recording repetitions, so the
// cost of tracing is measured in the same process.
//
// The last line of stdout is one JSON object: correctness, operation
// counts, the result digest, and two metric maps — "e2e" (host metrics from
// every repetition plus the simulated results) and "layer" (per-layer
// counters and host times; filled by the traced run).  run.py turns it
// into the benchmark's result line.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "harness.hpp"

namespace {

using namespace perfbench;

constexpr int kMinReps = 3;
constexpr int kMaxReps = 1000;

/// Peak resident memory of this process image.  getrusage's ru_maxrss
/// would carry over the launching process's peak across exec, so the
/// operating system's per-image high-water mark is read instead.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

void print_metrics(const char* key, const Metrics& m, bool last) {
  std::printf("\"%s\": {", key);
  bool first = true;
  for (const auto& [name, v] : m) {
    std::printf("%s\"%s\": [%.17g, \"%s\"]", first ? "" : ", ", name.c_str(),
                v.value, v.unit.c_str());
    first = false;
  }
  std::printf("}%s", last ? "" : ", ");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench <serve_xfs|serve_building|coop_replay|"
               "rpc_lanes> --seed N --seconds S --trace 0|1 [--lanes L] "
               "[--sim-ms M] [--trace-file P --trace-records R] "
               "[--spans-out P]\n"
               "       perfbench gen_trace --seed N --out P\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc % 2 != 0) return usage();  // flags come in pairs
  Options opt;
  opt.workload = argv[1];
  std::string out_path;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--lanes") {
      opt.lanes = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (flag == "--sim-ms") {
      opt.sim_ms = std::strtoll(v, nullptr, 10);
    } else if (flag == "--trace-file") {
      opt.trace_file = v;
    } else if (flag == "--trace-records") {
      opt.trace_records = std::strtoull(v, nullptr, 10);
    } else if (flag == "--spans-out") {
      opt.spans_out = v;
    } else if (flag == "--out") {
      out_path = v;
    } else {
      return usage();
    }
  }
  if (opt.workload == "gen_trace") {
    if (out_path.empty()) return usage();
    return generate_coop_trace(opt.seed, out_path);
  }
  RepResult (*run)(const Options&, Spans&) = nullptr;
  if (opt.workload == "serve_xfs") {
    run = run_serve_xfs;
  } else if (opt.workload == "serve_building") {
    run = run_serve_building;
  } else if (opt.workload == "coop_replay") {
    run = run_coop_replay;
    if (opt.trace_file.empty() || opt.trace_records == 0) return usage();
  } else if (opt.workload == "rpc_lanes") {
    run = run_rpc_lanes;
  } else {
    return usage();
  }
  if (opt.lanes < 1) return usage();

  Spans spans;
  std::vector<RepResult> plain, traced;
  // [first, last) span indices of each traced repetition.
  std::vector<std::pair<std::size_t, std::size_t>> traced_spans;
  double rss_mb = 0.0;
  // Machine slowdowns: the median of a reference kernel's times over its
  // reference, measured after each untraced repetition.  An untraced
  // repetition's set-up time is divided by the
  // slowdown measured just before it, and its run time by the geometric
  // mean of the ones just before and just after it (rates are multiplied).
  // So drift of a shared machine's speed, between runs or within one,
  // cancels.
  std::vector<double> slow, setup_slow;
  // rpc_lanes' two lanes meet at a barrier every epoch, so its run phase
  // follows how fast the host wakes a thread: it is scaled by the hand-off
  // kernel, which is noisier and so sampled longer.  Set-up, and every
  // other workload, runs on one thread.
  const bool barrier = opt.workload == "rpc_lanes" && opt.lanes > 1;
  struct Slowdown {
    double run;
    double setup;
  };
  // Samples for a share of the repetition's time (at least once), so long
  // repetitions get as many samples as short ones.
  const auto measure = [barrier](double rep_s) {
    const auto sample = [](double (*kernel)(), double reference,
                           double budget_s) {
      std::vector<double> k;
      for (double spent = 0.0; spent == 0.0 || spent < budget_s;) {
        const double s = kernel();
        k.push_back(s / reference);
        spent += s;
      }
      return median(k);
    };
    if (barrier) {
      return Slowdown{sample(handoff_kernel_seconds, kReferenceHandOffSeconds,
                             0.25 * rep_s),
                      sample(reference_kernel_seconds,
                             kReferenceKernelSeconds, 0.0)};
    }
    const double s =
        sample(reference_kernel_seconds, kReferenceKernelSeconds, 0.1 * rep_s);
    return Slowdown{s, s};
  };
  // The first repetition runs before any kernel, so that peak_rss_mb is
  // the scenario's own; it takes the slowdown measured after it.
  std::optional<Slowdown> before;
  const auto t0 = Clock::now();
  for (int i = 0; i < kMaxReps; ++i) {
    const bool trace_rep = opt.trace && i % 2 == 1;
    spans.set_enabled(trace_rep);
    const std::size_t first = spans.size();
    const auto rep_t0 = Clock::now();
    (trace_rep ? traced : plain).push_back(run(opt, spans));
    // Later repetitions (and the kernel) reuse a heap the first repetition
    // grew; its peak is what a single scenario run costs.
    if (i == 0) rss_mb = peak_rss_mb();
    if (trace_rep) {
      traced_spans.emplace_back(first, spans.size());
    } else {
      const Slowdown after = measure(seconds_since(rep_t0));
      slow.push_back(std::sqrt(before.value_or(after).run * after.run));
      setup_slow.push_back(before.value_or(after).setup);
      before = after;
    }
    const int min_reps = opt.trace ? 2 * kMinReps : kMinReps;
    if (i + 1 >= min_reps && seconds_since(t0) >= opt.seconds) break;
  }
  spans.set_enabled(false);

  std::vector<const RepResult*> all;
  for (const RepResult& r : plain) all.push_back(&r);
  for (const RepResult& r : traced) all.push_back(&r);
  const RepResult& ref = plain.front();

  std::vector<std::string> failures, unenforced;
  std::uint64_t attempted = 0, failed = 0;
  for (const RepResult* r : all) {
    attempted += r->ops;
    std::vector<std::string> f = r->check_failures;
    if (r->digest != ref.digest) {
      f.push_back("simulated results differ between repetitions");
    }
    failed += f.empty() ? r->failed : r->ops;
    failures.insert(failures.end(), f.begin(), f.end());
    unenforced.insert(unenforced.end(), r->unenforced_failures.begin(),
                      r->unenforced_failures.end());
  }
  for (std::vector<std::string>* v : {&failures, &unenforced}) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }

  // End-to-end host metrics come from untraced repetitions only, each
  // scaled to reference machine speed by the slowdown measured after it.
  std::vector<double> rate, setup, rep_plain, rep_traced;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const RepResult& r = plain[i];
    rate.push_back(static_cast<double>(r.ops) / r.run_s * slow[i]);
    setup.push_back(r.setup_s / setup_slow[i]);
    rep_plain.push_back(r.setup_s + r.run_s);
  }
  Metrics e2e = ref.sim;
  e2e["ops_per_s"] = {median(rate), "1/s"};
  e2e["setup_s"] = {median(setup), "s"};
  e2e["peak_rss_mb"] = {rss_mb, "MB"};
  e2e["error_rate"] = {attempted ? static_cast<double>(failed) /
                                       static_cast<double>(attempted)
                                 : 0.0,
                       "fraction"};

  Metrics layer;
  if (opt.trace) {
    const double speed = 1.0 / median(slow);
    layer = ref.counts;
    layer["host.speed"] = {speed, "x"};
    const double run_s = median([&] {
      std::vector<double> v;
      for (std::size_t i = 0; i < plain.size(); ++i) {
        v.push_back(plain[i].run_s / slow[i]);
      }
      return v;
    }());
    const auto per = [&](const char* count, const char* name) {
      const auto it = ref.counts.find(count);
      const double n = it == ref.counts.end() ? 0.0 : it->second.value;
      layer[name] = {n > 0 ? 1e9 * run_s / n : 0.0, "ns"};
    };
    per("sim.events", "sim.ns_per_event");
    per("sim.epochs", "sim.epoch_ns");
    for (const auto& [step, v] : ref.setup_steps) {
      std::vector<double> s;
      for (std::size_t i = 0; i < plain.size(); ++i) {
        s.push_back(plain[i].setup_steps.at(step) / setup_slow[i]);
      }
      layer[step] = {median(s), "s"};
    }
    // Self and per-call host times: medians over traced repetitions, which
    // are not followed by a kernel sample and take the run's median speed.
    std::map<std::string, std::vector<double>> self, per_call;
    for (std::size_t k = 0; k < traced.size(); ++k) {
      const auto [first, last] = traced_spans[k];
      for (const auto& [name, sec] : spans.self_seconds(first, last)) {
        self["self." + name + "_s"].push_back(sec * speed);
      }
      const auto total = spans.total_seconds(first, last);
      for (const auto& [span, per] : traced[k].per_call) {
        const auto it = total.find(span);
        per_call[per.first].push_back(
            it == total.end() ? 0.0 : 1e9 * it->second * speed / per.second);
      }
    }
    for (const auto& [name, v] : self) layer[name] = {median(v), "s"};
    for (const auto& [name, v] : per_call) layer[name] = {median(v), "ns"};
    // The overhead of tracing is resolved only where it exceeds the spread
    // of the untraced repetitions' own times (trace.noise_pct).
    for (const RepResult& r : traced) rep_traced.push_back(r.setup_s + r.run_s);
    layer["trace.overhead_pct"] = {
        100.0 * (median(rep_traced) / median(rep_plain) - 1.0), "%"};
    layer["trace.noise_pct"] = {100.0 * quartile_spread(rep_plain), "%"};
    layer["trace.spans_per_rep"] = {
        static_cast<double>(spans.size()) /
            static_cast<double>(std::max<std::size_t>(traced.size(), 1)),
        "count"};
    if (!opt.spans_out.empty() && !spans.write_chrome_json(opt.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.spans_out.c_str());
    }
  }

  std::printf("%s seed %llu: %zu repetitions (%zu traced), %llu ops, "
              "digest %016llx\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              all.size(), traced.size(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(ref.digest));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"digest\": \"%016llx\", \"inputs_digest\": \"%016llx\", "
              "\"reps\": %zu, \"unenforced\": [",
              failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(ref.digest),
              static_cast<unsigned long long>(ref.inputs_digest), all.size());
  for (std::size_t i = 0; i < unenforced.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", unenforced[i].c_str());
  }
  std::printf("], ");
  print_metrics("e2e", e2e, false);
  print_metrics("layer", layer, true);
  std::printf("}\n");
  return failures.empty() ? 0 : 1;
}
