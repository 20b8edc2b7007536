#include "xfs/log.hpp"

#include <cassert>
#include <memory>

namespace now::xfs {

LogStore::LogStore(raid::Storage& storage,
                   std::uint32_t segment_blocks, std::uint32_t block_bytes)
    : storage_(storage), segment_blocks_(segment_blocks),
      block_bytes_(block_bytes),
      stats_obs_("xfs.log", [this](obs::Sink& s) {
        s.counter("segments_written", stats_.segments_written);
        s.counter("blocks_appended", stats_.blocks_appended);
        s.counter("blocks_read", stats_.blocks_read);
        s.counter("segments_cleaned", stats_.segments_cleaned);
        s.counter("live_blocks_copied", stats_.live_blocks_copied);
        s.counter("segments_archived", stats_.segments_archived);
        s.counter("tape_reads", stats_.tape_reads);
        s.gauge("utilization", utilization());
      }) {
  assert(segment_blocks_ > 0 && block_bytes_ > 0);
}

double LogStore::utilization() const {
  std::uint64_t live = 0;
  std::uint64_t allocated = 0;
  for (const Segment& seg : segments_) {
    if (seg.free || seg.on_tape) continue;
    live += seg.live_count;
    allocated += segment_blocks_;
  }
  return allocated == 0 ? 0.0
                        : static_cast<double>(live) /
                              static_cast<double>(allocated);
}

SegmentId LogStore::allocate_segment() {
  for (SegmentId s = 0; s < segments_.size(); ++s) {
    if (segments_[s].free) return s;
  }
  segments_.emplace_back();
  return static_cast<SegmentId>(segments_.size() - 1);
}

void LogStore::kill_old_copy(BlockId b) {
  const auto it = imap_.find(b);
  if (it == imap_.end()) return;
  Segment& seg = segments_[it->second.segment];
  // The old home may have been reclaimed by the cleaner already (its
  // survivors are being re-appended right now).
  if (seg.free || it->second.slot >= seg.live.size()) return;
  if (seg.live[it->second.slot]) {
    seg.live[it->second.slot] = false;
    assert(seg.live_count > 0);
    --seg.live_count;
    if (seg.live_count == 0) {
      seg.free = true;
      seg.blocks.clear();
      seg.live.clear();
    }
  }
}

void LogStore::append_segment(net::NodeId writer,
                              const std::vector<BlockId>& blocks,
                              Done done) {
  assert(!blocks.empty() &&
         blocks.size() <= static_cast<std::size_t>(segment_blocks_));
  const SegmentId s = allocate_segment();
  Segment& seg = segments_[s];
  seg.free = false;
  seg.on_tape = false;
  seg.blocks = blocks;
  seg.live.assign(blocks.size(), true);
  seg.live_count = static_cast<std::uint32_t>(blocks.size());
  for (std::uint32_t slot = 0; slot < blocks.size(); ++slot) {
    kill_old_copy(blocks[slot]);
    imap_[blocks[slot]] = Location{s, slot};
  }
  ++stats_.segments_written;
  stats_.blocks_appended += blocks.size();
  storage_.write(writer, segment_offset(s),
                 static_cast<std::uint32_t>(blocks.size()) * block_bytes_,
                 std::move(done));
}

void LogStore::read_block(net::NodeId reader, BlockId b, Done done) {
  const auto it = imap_.find(b);
  assert(it != imap_.end() && "read_block() on block not in the log");
  ++stats_.blocks_read;
  const Segment& seg = segments_[it->second.segment];
  if (seg.on_tape) {
    assert(tape_ != nullptr);
    ++stats_.tape_reads;
    tape_->read(block_bytes_, std::move(done));
    return;
  }
  storage_.read(reader,
                segment_offset(it->second.segment) +
                    static_cast<std::uint64_t>(it->second.slot) *
                        block_bytes_,
                block_bytes_, std::move(done));
}

bool LogStore::on_tape(BlockId b) const {
  const auto it = imap_.find(b);
  if (it == imap_.end()) return false;
  return segments_[it->second.segment].on_tape;
}

std::vector<SegmentId> LogStore::archivable_segments() const {
  std::vector<SegmentId> v;
  for (SegmentId s = 0; s < segments_.size(); ++s) {
    const Segment& seg = segments_[s];
    if (!seg.free && !seg.on_tape && seg.live_count > 0) v.push_back(s);
  }
  return v;
}

void LogStore::archive_segment(net::NodeId driver, SegmentId s, Done done) {
  assert(tape_ != nullptr && "archive without a tape tier");
  assert(s < segments_.size());
  Segment& seg = segments_[s];
  assert(!seg.free && !seg.on_tape);
  ++stats_.segments_archived;
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(seg.live_count) * block_bytes_;
  // Stream off the RAID, then onto tape; the RAID space is then free for
  // fresh segments (the segment keeps its id, now tape-resident).
  storage_.read(driver, segment_offset(s), static_cast<std::uint32_t>(bytes),
                [this, s, bytes, done = std::move(done)]() mutable {
                  segments_[s].on_tape = true;
                  tape_->write(bytes, std::move(done));
                });
}

double LogStore::utilization(SegmentId s) const {
  if (s >= segments_.size() || segments_[s].free) return 0.0;
  return static_cast<double>(segments_[s].live_count) /
         static_cast<double>(segment_blocks_);
}

void LogStore::clean(net::NodeId driver, double threshold,
                     std::function<void(std::uint32_t)> done) {
  // Collect victims first: partially dead, below the threshold.
  std::vector<SegmentId> victims;
  for (SegmentId s = 0; s < segments_.size(); ++s) {
    const Segment& seg = segments_[s];
    if (seg.free || seg.on_tape || seg.live_count == 0) continue;
    if (utilization(s) <= threshold) victims.push_back(s);
  }
  if (victims.empty()) {
    done(0);
    return;
  }

  // Gather all live blocks from the victims.
  std::vector<BlockId> live_blocks;
  for (const SegmentId s : victims) {
    const Segment& seg = segments_[s];
    for (std::uint32_t slot = 0; slot < seg.blocks.size(); ++slot) {
      if (seg.live[slot]) live_blocks.push_back(seg.blocks[slot]);
    }
  }
  stats_.live_blocks_copied += live_blocks.size();
  stats_.segments_cleaned += victims.size();

  // Read each victim segment (its live data), then append the survivors to
  // fresh segments.  Reads are charged per victim segment.
  auto reads_left = std::make_shared<std::size_t>(victims.size());
  const auto ncleaned = static_cast<std::uint32_t>(victims.size());
  auto after_reads = [this, driver, live_blocks = std::move(live_blocks),
                      ncleaned, done = std::move(done)]() mutable {
    if (live_blocks.empty()) {
      done(ncleaned);
      return;
    }
    // Re-append survivors in segment-sized batches.
    auto batches = std::make_shared<std::vector<std::vector<BlockId>>>();
    for (std::size_t i = 0; i < live_blocks.size();
         i += segment_blocks_) {
      const std::size_t end =
          std::min(i + segment_blocks_, live_blocks.size());
      batches->emplace_back(live_blocks.begin() + i,
                            live_blocks.begin() + end);
    }
    auto writes_left = std::make_shared<std::size_t>(batches->size());
    for (const auto& batch : *batches) {
      append_segment(driver, batch,
                     [writes_left, ncleaned, done]() mutable {
                       if (--*writes_left == 0) done(ncleaned);
                     });
    }
  };
  for (const SegmentId s : victims) {
    const std::uint32_t bytes = segments_[s].live_count * block_bytes_;
    // Free the victim's bookkeeping now; the data is in flight to its new
    // home (crash-consistency of cleaning is out of scope here).
    Segment& seg = segments_[s];
    seg.free = true;
    seg.live_count = 0;
    seg.blocks.clear();
    seg.live.clear();
    storage_.read(driver, segment_offset(s), bytes,
                  [reads_left, after_reads]() mutable {
                    if (--*reads_left == 0) after_reads();
                  });
  }
}

}  // namespace now::xfs
