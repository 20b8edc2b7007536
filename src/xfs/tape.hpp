// Robotic tape archive — the bottom of the paper's storage hierarchy.
//
// xFS "cooperatively manage[s] ... client disk as a giant cache for
// robotic tape storage": cold log segments migrate from the workstation-
// disk RAID down to tape, and a read of archived data pays a robot mount
// plus streaming.  The archive keeps the last tape mounted for a while so
// batched restores amortize the arm movement.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace now::xfs {

struct TapeStats {
  std::uint64_t mounts = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
};

class TapeArchive {
 public:
  using Done = std::function<void()>;

  explicit TapeArchive(sim::Engine& engine) : engine_(engine) {}
  TapeArchive(const TapeArchive&) = delete;
  TapeArchive& operator=(const TapeArchive&) = delete;

  /// Streams `bytes` to tape; `done` fires when the archive is durable.
  void write(std::uint64_t bytes, Done done) {
    stats_.bytes_written += bytes;
    access(bytes, std::move(done));
  }

  /// Streams `bytes` back from tape (mount charged if the drive is idle).
  void read(std::uint64_t bytes, Done done) {
    stats_.bytes_read += bytes;
    access(bytes, std::move(done));
  }

  const TapeStats& stats() const { return stats_; }

 private:
  /// Robot arm + load + seek-to-file: tens of seconds in the early '90s.
  static constexpr sim::Duration kMountTime = 25 * sim::kSecond;
  /// Streaming rate once mounted.
  static constexpr double kStreamBps = 1.0 * 1024 * 1024;
  /// The drive stays mounted this long after the last access.
  static constexpr sim::Duration kKeepMounted = 60 * sim::kSecond;

  void access(std::uint64_t bytes, Done done) {
    sim::SimTime start = std::max(engine_.now(), drive_busy_until_);
    if (start > mounted_until_) {
      ++stats_.mounts;
      start += kMountTime;
    }
    const auto stream = sim::from_sec(static_cast<double>(bytes) /
                                      kStreamBps);
    drive_busy_until_ = start + stream;
    mounted_until_ = drive_busy_until_ + kKeepMounted;
    engine_.schedule_at(drive_busy_until_, std::move(done));
  }

  sim::Engine& engine_;
  sim::SimTime drive_busy_until_ = 0;
  /// The drive counts as mounted until this instant.
  sim::SimTime mounted_until_ = -1;
  TapeStats stats_;
};

}  // namespace now::xfs
