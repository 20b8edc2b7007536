// Trace tooling: generate the synthetic stand-in traces, export them to
// files, read them back, and print their vital statistics — the workflow
// for swapping in real traces (any tool that writes the same line format
// plugs straight into the benches).
//
//   $ ./examples/trace_tools [output-directory]
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "replay/cursor.hpp"
#include "trace/fs_trace.hpp"
#include "trace/nfs_trace.hpp"
#include "trace/parallel_trace.hpp"
#include "trace/trace_io.hpp"
#include "trace/usage_trace.hpp"

int main(int argc, char** argv) {
  using namespace now;
  const std::string dir = argc > 1 ? argv[1] : ".";

  // --- File-system trace (Table 3's input) -----------------------------
  trace::FsWorkloadParams fsp;
  fsp.clients = 42;
  fsp.accesses_per_client = 5'000;
  const auto fs = trace::generate_fs_trace(fsp);
  {
    std::ofstream out(dir + "/fs_trace.txt");
    trace::write_fs_trace(out, fs);
  }
  std::size_t shared = 0;
  for (const auto& a : fs) {
    if (a.block < fsp.shared_blocks) ++shared;
  }
  std::printf("fs trace:        %zu accesses, %.0f%% to the shared pool "
              "-> %s/fs_trace.txt\n",
              fs.size(), 100.0 * shared / fs.size(), dir.c_str());

  // --- Interactive usage trace (Figure 3's sequential side) ------------
  trace::UsageParams up;
  up.workstations = 53;  // the original DECstation cluster's width
  up.seed = 12;
  const trace::UsageTrace usage(up);
  {
    std::ofstream out(dir + "/usage_trace.txt");
    trace::write_usage_trace(out, usage);
  }
  std::printf("usage trace:     %u workstations, %.0f%% of machine-time "
              "idle -> %s/usage_trace.txt\n",
              usage.workstations(),
              100 * usage.average_idle_fraction(2 * sim::kMinute),
              dir.c_str());

  // --- Parallel-job trace (Figure 3's parallel side) -------------------
  trace::ParallelJobParams jp;
  jp.seed = 4;
  const auto jobs = trace::generate_parallel_jobs(jp);
  {
    std::ofstream out(dir + "/parallel_jobs.txt");
    trace::write_parallel_jobs(out, jobs);
  }
  std::printf("parallel trace:  %zu jobs, %.0f processor-hours "
              "-> %s/parallel_jobs.txt\n",
              jobs.size(), trace::total_processor_seconds(jobs) / 3600,
              dir.c_str());

  // --- Round-trip check --------------------------------------------------
  {
    std::ifstream in(dir + "/fs_trace.txt");
    replay::FsTraceCursor cur(in);
    while (cur.next()) {
    }
    std::printf("\nround trip:      re-read %zu fs accesses (%s)\n",
                static_cast<std::size_t>(cur.records()),
                cur.records() == fs.size() ? "intact" : "MISMATCH");
  }

  std::printf("\nformat: '#'-comments + one record per line; see "
              "src/trace/trace_io.hpp.\n"
              "Replace any of these files with a real trace and feed it "
              "to the benches.\n");
  return 0;
}
