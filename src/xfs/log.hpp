// Log-structured storage for xFS, striped over the software RAID.
//
// xFS stores file data and metadata in a log (as in LFS): clients batch
// dirty blocks into segments and append whole segments to the storage
// array, which turns most writes into full-stripe RAID-5 writes — no
// read-modify-write parity penalty.  An imap tracks each block's current
// home; overwritten blocks leave dead space behind, and a cleaner compacts
// segments whose live fraction drops below a threshold.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "raid/raid.hpp"
#include "xfs/tape.hpp"

namespace now::xfs {

using BlockId = std::uint64_t;
using SegmentId = std::uint32_t;
inline constexpr SegmentId kNoSegment = 0xffffffffu;

struct LogStats {
  std::uint64_t segments_written = 0;
  std::uint64_t blocks_appended = 0;
  std::uint64_t blocks_read = 0;
  std::uint64_t segments_cleaned = 0;
  std::uint64_t live_blocks_copied = 0;
  std::uint64_t segments_archived = 0;
  std::uint64_t tape_reads = 0;
};

class LogStore {
 public:
  using Done = std::function<void()>;

  /// Segments hold `segment_blocks` blocks of `block_bytes` each.
  LogStore(raid::Storage& storage, std::uint32_t segment_blocks,
           std::uint32_t block_bytes);
  LogStore(const LogStore&) = delete;
  LogStore& operator=(const LogStore&) = delete;

  /// Appends `blocks` (possibly a partial segment) as a new segment,
  /// driven by `writer`.  Blocks previously in the log are superseded
  /// (their old copies become dead space).  `done` fires when the segment
  /// is on the array.
  void append_segment(net::NodeId writer, const std::vector<BlockId>& blocks,
                      Done done);

  /// True if the log holds a copy of `b`.
  bool in_log(BlockId b) const { return imap_.contains(b); }

  /// Reads `b`'s current copy, driven by `reader`.  `b` must be in the log.
  void read_block(net::NodeId reader, BlockId b, Done done);

  /// Live fraction of a segment (0 for free segments).
  double utilization(SegmentId s) const;
  /// Live fraction of the RAID-resident log: live / allocated blocks.
  double utilization() const;

  /// One cleaning pass driven by `driver`: every segment with live
  /// fraction in (0, threshold] has its live blocks copied into fresh
  /// segments and is then freed.  `done(cleaned)` reports how many
  /// segments were reclaimed.
  void clean(net::NodeId driver, double threshold,
             std::function<void(std::uint32_t)> done);

  std::size_t segment_count() const { return segments_.size(); }
  const LogStats& stats() const { return stats_; }

  // --- Tape tier ------------------------------------------------------
  /// Attaches a robotic tape archive as the tier below the RAID.
  void set_tape(TapeArchive* tape) { tape_ = tape; }

  /// Migrates segment `s` (must be live, not already archived) to tape,
  /// driven by `driver`: its data is read off the RAID, streamed to tape,
  /// and the RAID space is freed.  Reads of its blocks then pay the tape.
  void archive_segment(net::NodeId driver, SegmentId s, Done done);

  /// Segments eligible for archival: on the RAID with any live data.
  std::vector<SegmentId> archivable_segments() const;

  bool archived(SegmentId s) const {
    return s < segments_.size() && segments_[s].on_tape;
  }
  /// True if `b`'s current copy lives on tape.
  bool on_tape(BlockId b) const;

 private:
  struct Segment {
    std::vector<BlockId> blocks;  // slot -> block id
    std::vector<bool> live;
    std::uint32_t live_count = 0;
    bool free = true;
    bool on_tape = false;
  };
  struct Location {
    SegmentId segment = kNoSegment;
    std::uint32_t slot = 0;
  };

  SegmentId allocate_segment();
  void kill_old_copy(BlockId b);
  std::uint64_t segment_offset(SegmentId s) const {
    return static_cast<std::uint64_t>(s) * segment_blocks_ * block_bytes_;
  }

  raid::Storage& storage_;
  std::uint32_t segment_blocks_;
  std::uint32_t block_bytes_;
  std::vector<Segment> segments_;
  std::unordered_map<BlockId, Location> imap_;
  TapeArchive* tape_ = nullptr;
  LogStats stats_;
  obs::Collector stats_obs_;
};

}  // namespace now::xfs
