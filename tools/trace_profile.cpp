// Profiles a recorded trace, and optionally cross-validates the synthetic
// generator against it.
//
//   $ ./tools/trace_profile <trace>
//       One streaming pass (O(window) reader memory): op mix, inter-
//       arrival quantiles, Zipf popularity fit — printed as `key value`
//       lines.
//
//   $ ./tools/trace_profile <trace> --twin <path>
//       Additionally generates a synthetic *twin* of the trace — the fs
//       generator parameterized from the profile (client count, volume,
//       mean gap, write fraction) — writes it to <path>, profiles it the
//       same way, and prints both profiles side by side.  That table is
//       the synthetic-vs-replayed comparison EXPERIMENTS.md records: if
//       the generator models what it claims, the columns agree on shape
//       (read/write split, gap scale, popularity skew) even though the
//       twin is not a record-for-record copy.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "replay/profile.hpp"
#include "trace/fs_trace.hpp"
#include "trace/trace_io.hpp"

namespace {

void side_by_side(const now::replay::TraceProfile& replayed,
                  const now::replay::TraceProfile& twin) {
  std::printf("\n%-18s %14s %14s\n", "metric", "replayed", "synthetic");
  const auto line = [](const char* key, double a, double b,
                       const char* fmt) {
    char av[32], bv[32];
    std::snprintf(av, sizeof av, fmt, a);
    std::snprintf(bv, sizeof bv, fmt, b);
    std::printf("%-18s %14s %14s\n", key, av, bv);
  };
  line("records", static_cast<double>(replayed.records),
       static_cast<double>(twin.records), "%.0f");
  line("clients", replayed.clients, twin.clients, "%.0f");
  line("distinct_blocks", static_cast<double>(replayed.distinct_blocks),
       static_cast<double>(twin.distinct_blocks), "%.0f");
  const auto frac = [](const now::replay::TraceProfile& p,
                       std::uint64_t n) {
    return p.records ? static_cast<double>(n) /
                           static_cast<double>(p.records)
                     : 0.0;
  };
  line("read_fraction", frac(replayed, replayed.reads),
       frac(twin, twin.reads), "%.4f");
  line("write_fraction", frac(replayed, replayed.writes),
       frac(twin, twin.writes), "%.4f");
  line("mean_gap_us", replayed.mean_gap_us, twin.mean_gap_us, "%.1f");
  line("gap_p50_us", replayed.gap_p50_us, twin.gap_p50_us, "%.1f");
  line("gap_p90_us", replayed.gap_p90_us, twin.gap_p90_us, "%.1f");
  line("gap_p99_us", replayed.gap_p99_us, twin.gap_p99_us, "%.1f");
  line("zipf_s", replayed.zipf_s, twin.zipf_s, "%.3f");
  line("top1_share", replayed.top1_share, twin.top1_share, "%.4f");
  line("top10_share", replayed.top10_share, twin.top10_share, "%.4f");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace now;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: trace_profile <trace> [--twin <path>]\n");
    return 2;
  }
  const std::string path = argv[1];
  std::string twin_path;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--twin") != 0) continue;
    if (i + 1 == argc) {
      std::fprintf(stderr, "error: --twin expects a value\n");
      return 2;
    }
    twin_path = argv[i + 1];
    break;
  }

  try {
    const auto p = replay::profile_trace(path);
    std::printf("%s", replay::format_profile(p).c_str());

    if (!twin_path.empty()) {
      // Parameterize the fs generator from the measured profile.  The twin
      // keeps the generator's *structure* (shared pool + private sets,
      // activity skew); only the externally measurable knobs are matched.
      trace::FsWorkloadParams wp;
      wp.clients = std::max<std::uint32_t>(p.clients, 1);
      wp.accesses_per_client =
          std::max<std::uint64_t>(p.records / wp.clients, 1);
      wp.write_fraction =
          p.records ? static_cast<double>(p.writes) /
                          static_cast<double>(p.records)
                    : 0.0;
      // Per-client gap: the aggregate stream interleaves all clients, so a
      // client's own gap is roughly clients x the aggregate mean gap.
      wp.mean_gap = sim::from_us(std::max(1.0, p.mean_gap_us) *
                                 static_cast<double>(wp.clients));
      // Heavy-client skew would shrink the active population below the
      // measured client count; the twin keeps everyone equally active.
      wp.heavy_client_fraction = 1.0;
      wp.shared_blocks = 1'024;
      wp.private_blocks = 256;
      wp.seed = 42;
      const auto t = trace::generate_fs_trace(wp);
      {
        std::ofstream out(twin_path);
        trace::write_fs_trace(out, t);
      }
      const auto tp = replay::profile_trace(twin_path);
      side_by_side(p, tp);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_profile: %s\n", e.what());
    return 1;
  }
  return 0;
}
