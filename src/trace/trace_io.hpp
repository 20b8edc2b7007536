// Trace file writers: simple line-oriented formats so synthetic traces
// can be exported for inspection and replayed, and real traces (or traces
// from other tools) can replace the synthetic generators.  The readers are
// the streaming cursors in replay/cursor.hpp.
//
// Formats (one record per line, '#' comments and blank lines ignored):
//   file-system access : <time_us> <client> <block> <r|w>
//   busy interval      : <node> <begin_us> <end_us>
//   parallel job       : <arrival_us> <width> <work_us> <p|d>
#pragma once

#include <iosfwd>
#include <vector>

#include "trace/fs_trace.hpp"
#include "trace/parallel_trace.hpp"
#include "trace/usage_trace.hpp"

namespace now::trace {

// --- File-system traces -----------------------------------------------
void write_fs_trace(std::ostream& out, const std::vector<FsAccess>& trace);

// --- Usage (busy-interval) traces -------------------------------------
void write_usage_trace(std::ostream& out, const UsageTrace& trace);

// --- Parallel-job traces -----------------------------------------------
void write_parallel_jobs(std::ostream& out,
                         const std::vector<ParallelJob>& jobs);

}  // namespace now::trace
