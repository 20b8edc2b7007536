// now::replay — streaming trace profiler.
//
// One pass over a trace file (O(window) reader memory plus O(distinct
// blocks) for the popularity table) yielding the distributions the
// synthetic generators claim to model: op mix, transfer-size mean,
// inter-arrival quantiles, and a fitted Zipf popularity exponent.  The
// profiler is how we cross-validate `generate_fs_trace` against a
// replayed recording — same numbers, side by side, in EXPERIMENTS.md.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "replay/cursor.hpp"

namespace now::replay {

inline constexpr std::size_t kNfsOpCount =
    static_cast<std::size_t>(NfsOp::kSymlink) + 1;

struct TraceProfile {
  TraceFormat format = TraceFormat::kFs;
  std::uint64_t records = 0;
  std::uint64_t reads = 0;   // after the op table: non-mutating accesses
  std::uint64_t writes = 0;  // mutating accesses
  std::uint64_t data_ops = 0;  // NFS read/write/commit; for fs, == records
  std::uint64_t meta_ops = 0;  // NFS metadata ops; 0 for fs traces
  std::uint32_t clients = 0;
  std::uint64_t distinct_blocks = 0;
  sim::SimTime first_at = 0;
  sim::SimTime last_at = 0;

  // Inter-arrival gaps between consecutive records, microseconds.
  // Quantiles come from a 64-bucket log2 histogram: exact counts, bucket-
  // resolution values (each estimate is the bucket's lower edge).
  double mean_gap_us = 0;
  double gap_p50_us = 0;
  double gap_p90_us = 0;
  double gap_p99_us = 0;

  // Block popularity: least-squares fit of ln(freq) vs ln(rank) over the
  // most popular blocks — the Zipf exponent the synthetic generators take
  // as a parameter.
  double zipf_s = 0;
  double top1_share = 0;   // fraction of accesses to the hottest block
  double top10_share = 0;  // ... to the ten hottest

  // NFS only: per-op counts (indexed by NfsOp) and mean transfer size of
  // data ops.  All zero for native fs traces.
  std::array<std::uint64_t, kNfsOpCount> op_counts{};
  double mean_data_bytes = 0;
};

/// Profiles the trace at `path` (format auto-detected) in one streaming
/// pass.  NFS traces are profiled on raw records — op mix and sizes — with
/// block popularity computed through nfs_block, the mapping replay uses.
TraceProfile profile_trace(const std::string& path, CursorOptions opt = {});

/// Renders the profile as aligned `key value` lines (one per field) for
/// tools and EXPERIMENTS.md tables.
std::string format_profile(const TraceProfile& p);

}  // namespace now::replay
