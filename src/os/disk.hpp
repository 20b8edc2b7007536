// Workstation disk model, 1994 vintage.
//
// An access costs positioning (seek + rotational latency, skipped when the
// access is sequential with the previous one) plus transfer at the media
// rate, served FIFO.  Default parameters reproduce the paper's Table 2
// figure of 14,800 us for an 8-Kbyte access.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/callback.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace now::os {

/// Request-queue discipline.  kElevator is the classic SCAN/LOOK sweep:
/// it serves the request nearest ahead of the head, reversing at the ends,
/// which cuts positioning time under deep queues at the cost of fairness.
enum class DiskSched : std::uint8_t { kFifo, kElevator };

/// Average seek + rotational delay for a random access.
inline constexpr sim::Duration kDiskPositioning = sim::from_us(12'800);
/// Track-to-track positioning, the near end of the distance seek curve.
inline constexpr sim::Duration kDiskMinPositioning = sim::from_us(2'500);

struct DiskParams {
  DiskSched scheduler = DiskSched::kFifo;
  /// If true, positioning scales with seek distance:
  /// kDiskMinPositioning + (kDiskPositioning - kDiskMinPositioning) *
  /// sqrt(d/capacity), the standard seek curve.  False keeps the flat
  /// Table 2 cost.
  bool distance_seek = false;
};

/// One spindle with a FIFO request queue.
class Disk {
 public:
  /// Move-only; a completion capturing up to 48 bytes (an RPC reply handle
  /// and a size, say) is stored without allocating.
  using Done = sim::InlinedFn<void()>;

  /// `node` is the owning workstation, the trace row of the disk's spans;
  /// a disk outside any node records on the cluster row.
  Disk(sim::Engine& engine, DiskParams params,
       std::uint32_t node = obs::kClusterNode)
      : engine_(engine), params_(params), node_(node),
        obs_track_(obs::tracer().track("os")),
        stats_obs_("os.disk", [this](obs::Sink& s) {
          s.counter("reads", reads_);
          s.counter("writes", writes_);
          s.summary("service_us", service_us_);
          s.summary("response_us", response_us_);
          s.gauge("queue_depth", static_cast<double>(queue_depth()));
        }) {}
  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// Queues a read of `bytes` at `offset`; `done` fires at completion.
  void read(std::uint64_t offset, std::uint32_t bytes, Done done);

  /// Queues a write of `bytes` at `offset`.
  void write(std::uint64_t offset, std::uint32_t bytes, Done done);

  const DiskParams& params() const { return params_; }
  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }
  std::size_t queue_depth() const { return queue_.size() + (busy_ ? 1 : 0); }
  /// Service-time distribution (queueing excluded), microseconds.
  const sim::Summary& service_time_us() const { return service_us_; }

  /// Pure service time for an access, without queueing: what Table 2 calls
  /// the "disk" component.
  sim::Duration service_time(std::uint32_t bytes, bool sequential) const;

  /// Positioning cost for a head movement of `distance` bytes (flat unless
  /// distance_seek is enabled).
  sim::Duration positioning_time(std::uint64_t distance) const;

 private:
  struct Request {
    std::uint64_t offset;
    std::uint32_t bytes;
    bool is_write;
    sim::SimTime enqueued;
    Done done;
  };

  void start_next();
  /// Index into queue_ of the next request under the active discipline.
  std::size_t pick_next() const;

  sim::Engine& engine_;
  DiskParams params_;
  std::uint32_t node_;
  std::deque<Request> queue_;
  Request in_service_{};
  bool busy_ = false;
  bool sweeping_up_ = true;  // elevator direction
  // Byte offset after the last access; starts "nowhere" so the first access
  // always pays positioning.
  std::uint64_t head_pos_ = ~0ull;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  sim::Summary service_us_;
  sim::Summary response_us_;
  obs::TrackId obs_track_;
  obs::Collector stats_obs_;
};

}  // namespace now::os
