#include "trace/trace_io.hpp"

#include <limits>
#include <ostream>

namespace now::trace {

void write_fs_trace(std::ostream& out, const std::vector<FsAccess>& trace) {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "# fs trace: <time_us> <client> <block> <r|w>\n";
  for (const FsAccess& a : trace) {
    out << sim::to_us(a.at) << ' ' << a.client << ' ' << a.block << ' '
        << (a.is_write ? 'w' : 'r') << '\n';
  }
}

void write_usage_trace(std::ostream& out, const UsageTrace& trace) {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "# usage trace: <node> <begin_us> <end_us>\n";
  for (std::uint32_t n = 0; n < trace.workstations(); ++n) {
    for (const BusyInterval& b : trace.intervals(n)) {
      out << n << ' ' << sim::to_us(b.begin) << ' ' << sim::to_us(b.end)
          << '\n';
    }
  }
}

void write_parallel_jobs(std::ostream& out,
                         const std::vector<ParallelJob>& jobs) {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "# parallel jobs: <arrival_us> <width> <work_us> <p|d>\n";
  for (const ParallelJob& j : jobs) {
    out << sim::to_us(j.arrival) << ' ' << j.width << ' '
        << sim::to_us(j.work) << ' ' << (j.development ? 'd' : 'p') << '\n';
  }
}

}  // namespace now::trace
