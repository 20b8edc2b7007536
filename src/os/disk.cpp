#include "os/disk.hpp"

#include <cassert>
#include <cmath>

namespace now::os {

namespace {
/// Media transfer rate in bytes per second (8 KB in 2 ms => 4 MB/s).
constexpr double kTransferBps = 4.0 * 1024 * 1024;
/// Capacity, the far end of the distance seek curve.
constexpr std::uint64_t kCapacityBytes = 1ull << 30;  // 1 GB
}  // namespace

sim::Duration Disk::positioning_time(std::uint64_t distance) const {
  if (!params_.distance_seek) return kDiskPositioning;
  const double frac = std::min(
      1.0, static_cast<double>(distance) /
               static_cast<double>(kCapacityBytes));
  const auto span =
      static_cast<double>(kDiskPositioning - kDiskMinPositioning);
  return kDiskMinPositioning +
         static_cast<sim::Duration>(span * std::sqrt(frac));
}

sim::Duration Disk::service_time(std::uint32_t bytes, bool sequential) const {
  const double xfer_s = static_cast<double>(bytes) / kTransferBps;
  sim::Duration t = sim::from_sec(xfer_s);
  if (!sequential) t += kDiskPositioning;
  return t;
}

void Disk::read(std::uint64_t offset, std::uint32_t bytes, Done done) {
  queue_.push_back(Request{offset, bytes, false, engine_.now(),
                           std::move(done)});
  if (!busy_) start_next();
}

void Disk::write(std::uint64_t offset, std::uint32_t bytes, Done done) {
  queue_.push_back(Request{offset, bytes, true, engine_.now(),
                           std::move(done)});
  if (!busy_) start_next();
}

std::size_t Disk::pick_next() const {
  if (params_.scheduler == DiskSched::kFifo || queue_.size() == 1) return 0;
  // LOOK: nearest request in the sweep direction; reverse at the end.
  const auto choose = [this](bool up) -> std::ptrdiff_t {
    std::ptrdiff_t best = -1;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const bool ahead = up ? queue_[i].offset >= head_pos_ ||
                                  head_pos_ == ~0ull
                            : queue_[i].offset <= head_pos_;
      if (!ahead) continue;
      if (best < 0) {
        best = static_cast<std::ptrdiff_t>(i);
        continue;
      }
      const auto& b = queue_[static_cast<std::size_t>(best)];
      const bool closer = up ? queue_[i].offset < b.offset
                             : queue_[i].offset > b.offset;
      if (closer) best = static_cast<std::ptrdiff_t>(i);
    }
    return best;
  };
  std::ptrdiff_t best = choose(sweeping_up_);
  if (best < 0) best = choose(!sweeping_up_);  // reverse the sweep
  return best < 0 ? 0 : static_cast<std::size_t>(best);
}

void Disk::start_next() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  const std::size_t idx = pick_next();
  in_service_ = std::move(queue_[idx]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
  const Request& req = in_service_;

  const bool sequential = req.offset == head_pos_;
  sim::Duration svc;
  if (sequential) {
    svc = service_time(req.bytes, true);
  } else {
    const std::uint64_t distance =
        head_pos_ == ~0ull
            ? req.offset
            : (req.offset > head_pos_ ? req.offset - head_pos_
                                      : head_pos_ - req.offset);
    svc = service_time(req.bytes, true) + positioning_time(distance);
  }
  if (head_pos_ != ~0ull) sweeping_up_ = req.offset >= head_pos_;
  head_pos_ = req.offset + req.bytes;
  if (req.is_write) {
    ++writes_;
  } else {
    ++reads_;
  }
  service_us_.add(sim::to_us(svc));

  // The request waits in in_service_ (one at a time), so the completion
  // names only the disk and fits the engine's inline buffer.
  engine_.schedule_in(svc, [this] {
    Request r = std::move(in_service_);
    response_us_.add(sim::to_us(engine_.now() - r.enqueued));
    obs::tracer().complete(node_, obs_track_,
                           r.is_write ? "disk.write" : "disk.read", r.enqueued,
                           engine_.now());
    if (r.done) r.done();
    start_next();
  });
}

}  // namespace now::os
