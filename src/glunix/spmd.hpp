// SPMD parallel applications over user-level Active Messages.
//
// These are the communication patterns of Figure 4.  All use *polling*
// endpoints (the CM-5 user-level AM discipline): a rank only absorbs
// messages while its process is on the CPU, and waiting is spinning.  That
// is why local scheduling hurts: a reply or a credit return stalls until
// the peer's process happens to be dispatched again.
//
//   kComputeOnly — pure computation; the competing-job filler.
//   kRandomSmall — many small messages to random peers, no waiting.  With
//                  enough buffering the sender barely slows (paper: two of
//                  the four apps behave this way).
//   kColumn      — infrequent but intense bursts into a single destination;
//                  overflows the destination's buffering, so senders stall
//                  on flow control ("Column ... overflows the buffers").
//   kEm3d        — bulk-synchronous neighbor exchange + barrier every
//                  iteration; suffers at synchronization points.
//   kConnect     — frequent synchronous request/reply to random peers
//                  (data dependences); performs worst under local
//                  scheduling because every round trip waits out peers'
//                  time slices.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "glunix/coschedule.hpp"
#include "proto/am.hpp"
#include "sim/random.hpp"

namespace now::glunix {

enum class CommPattern {
  kComputeOnly,
  kRandomSmall,
  kColumn,
  kEm3d,
  kConnect,
};

const char* pattern_name(CommPattern p);

struct SpmdParams {
  CommPattern pattern = CommPattern::kEm3d;
  int iterations = 50;
  /// Per-rank computation per iteration.
  sim::Duration compute_per_iteration = 20 * sim::kMillisecond;
  std::uint32_t msg_bytes = 1024;
  /// Messages per iteration for kRandomSmall / kColumn bursts.
  std::uint32_t burst = 32;
  /// Synchronous round trips per iteration for kConnect.
  int rpcs_per_iteration = 8;
  std::uint64_t seed = 1;
};

/// One parallel program: a gang of rank processes, one per node.
class SpmdApp {
 public:
  using DoneFn = std::function<void(sim::Duration)>;

  SpmdApp(proto::AmLayer& am, std::vector<os::Node*> nodes,
          SpmdParams params, DoneFn done);
  SpmdApp(const SpmdApp&) = delete;
  SpmdApp& operator=(const SpmdApp&) = delete;

  /// Spawns all rank processes.  One-shot.
  void start();

  /// Gang handle for the coscheduler.
  Coscheduler::Gang gang() const;

  bool finished() const { return finished_ranks_ == ranks_.size(); }
  sim::Duration elapsed() const { return elapsed_; }
  std::uint32_t width() const {
    return static_cast<std::uint32_t>(ranks_.size());
  }

 private:
  struct Rank {
    os::Node* node = nullptr;
    os::ProcessId pid = os::kNoProcess;
    proto::EndpointId ep = proto::kInvalidEndpoint;
    int iter = 0;
    std::uint64_t msgs_received = 0;  // monotonic (em3d progress)
    bool reply_pending = false;       // connect
    std::uint32_t barrier_gen = 0;    // next barrier generation to use
    std::uint32_t released_gen = 0;   // highest release seen
    std::unique_ptr<sim::Pcg32> rng;
  };

  void run_iteration(std::size_t r);
  void communicate(std::size_t r, std::function<void()> then);
  void send_chain(std::size_t r, std::uint32_t count,
                  std::function<std::size_t()> pick_dst,
                  std::function<void()> then);
  void connect_chain(std::size_t r, int remaining,
                     std::function<void()> then);
  void barrier(std::size_t r, std::function<void()> then);
  void send_release_chain(std::size_t r, std::size_t next,
                          std::uint32_t gen, std::function<void()> then);
  void spin_wait(std::size_t r, std::function<bool()> pred,
                 std::function<void()> then);
  void finish_rank(std::size_t r);
  std::size_t random_peer(std::size_t r);

  proto::AmLayer& am_;
  SpmdParams params_;
  DoneFn done_;
  std::vector<Rank> ranks_;
  // Barrier bookkeeping at rank 0: generation -> arrivals so far.
  std::unordered_map<std::uint32_t, std::uint32_t> barrier_arrivals_;
  std::size_t finished_ranks_ = 0;
  sim::SimTime started_at_ = 0;
  sim::Duration elapsed_ = 0;
  bool started_ = false;

  static constexpr proto::HandlerId kMsg = 1;
  static constexpr proto::HandlerId kReq = 2;
  static constexpr proto::HandlerId kRep = 3;
  static constexpr proto::HandlerId kBarArrive = 4;
  static constexpr proto::HandlerId kBarRelease = 5;
};

}  // namespace now::glunix
