// Process-migration cost model.
//
// GLUnix guarantees interactive users their machine back by migrating guest
// processes away when the user returns — including their *memory state*, so
// the returning user's working set is intact.  The paper's arithmetic: with
// ATM bandwidth and a parallel file system, 64 MB of DRAM can be saved or
// restored in under 4 seconds.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/time.hpp"

namespace now::glunix {

struct MigrationParams {
  /// Deliverable network bandwidth from one node (155 Mb/s ATM payload).
  double network_mbytes_per_sec = 19.4;
  /// Aggregate parallel-file-system bandwidth available to one writer.
  double pfs_mbytes_per_sec = 32.0;
};

class MigrationCostModel {
 public:
  explicit MigrationCostModel(MigrationParams p = {}) : p_(p) {}

  /// Effective streaming bandwidth: the slower of the NIC and the PFS.
  double effective_mbytes_per_sec() const {
    return std::min(p_.network_mbytes_per_sec, p_.pfs_mbytes_per_sec);
  }

  /// Time to checkpoint `bytes` of process state off the machine.
  sim::Duration save_time(std::uint64_t bytes) const {
    return kFreezeOverhead + stream_time(bytes);
  }

  /// Time to restore `bytes` onto a (possibly different) machine.
  sim::Duration restore_time(std::uint64_t bytes) const {
    return kFreezeOverhead + stream_time(bytes);
  }

  /// Full migration: save at the source + restore at the destination.
  sim::Duration migrate_time(std::uint64_t bytes) const {
    return save_time(bytes) + restore_time(bytes);
  }

  const MigrationParams& params() const { return p_; }

 private:
  /// Fixed cost: freeze the process, walk page tables, reprotect.
  static constexpr sim::Duration kFreezeOverhead = 150 * sim::kMillisecond;

  sim::Duration stream_time(std::uint64_t bytes) const {
    const double mb = static_cast<double>(bytes) / (1024.0 * 1024.0);
    return sim::from_sec(mb / effective_mbytes_per_sec());
  }

  MigrationParams p_;
};

}  // namespace now::glunix
