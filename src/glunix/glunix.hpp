// GLUnix: a global-layer Unix built *on top of* unmodified local systems.
//
// The paper's discipline, kept in the code structure: GLUnix never reaches
// into a node's internals.  Everything it does goes through a per-node
// daemon spoken to over RPC — spawn a guest process, sample console
// activity (every 2 seconds, like the original tracing daemons), answer
// heartbeats.  On top of those primitives the master layer provides:
//
//   * idle detection      — the one-minute no-input rule;
//   * remote execution    — run a batch job on somebody's idle machine;
//   * the social contract — the moment the owner touches the keyboard, the
//     guest is frozen and migrated away (checkpoint its memory, restore it
//     elsewhere), giving the user their whole machine back;
//   * fault tolerance     — heartbeats detect dead nodes; guests restart
//     from their last checkpoint on another machine, and the rest of the
//     cluster never notices.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "glunix/migration.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proto/rpc.hpp"

namespace now::glunix {

/// RPC methods served by each node's GLUnix daemon.
inline constexpr proto::MethodId kGluPing = 120;
inline constexpr proto::MethodId kGluSpawn = 121;
inline constexpr proto::MethodId kGluKill = 122;
inline constexpr proto::MethodId kGluProbeIdle = 123;
inline constexpr proto::MethodId kGluSuspend = 125;
inline constexpr proto::MethodId kGluResume = 126;

struct GlunixParams {
  /// A machine is recruitable after this much console silence.
  sim::Duration idle_window = 60 * sim::kSecond;
  /// Daemon console-sampling period (the original study logged every 2 s).
  sim::Duration poll_interval = 2 * sim::kSecond;
  sim::Duration heartbeat_interval = 1 * sim::kSecond;
  std::uint32_t heartbeat_misses = 3;
  /// Guests checkpoint this often; a node crash rolls back to the last one.
  sim::Duration checkpoint_interval = 60 * sim::kSecond;
  /// The social contract's fine print: "we explicitly limit the number of
  /// times per day external processes can delay any interactive user."  A
  /// machine whose owner has been disturbed this many times in the window
  /// is off-limits to new guests until the window rolls over.
  std::uint32_t max_evictions_per_window = 4;
  sim::Duration eviction_window = 24 * sim::kHour;
  MigrationParams migration;
};

using JobId = std::uint64_t;

struct GuestStats {
  std::uint64_t launched = 0;
  std::uint64_t completed = 0;
  std::uint64_t migrations = 0;
  std::uint64_t crash_restarts = 0;
  std::uint64_t waiting_peak = 0;
  std::uint64_t gangs_launched = 0;
  std::uint64_t gangs_completed = 0;
  std::uint64_t gang_pauses = 0;  // whole-gang suspensions for a migration
  std::uint64_t owner_evictions = 0;  // guests displaced by a returning owner
};

class Glunix {
 public:
  /// `done(node)` reports where the job finally completed.
  using DoneFn = std::function<void(net::NodeId)>;
  using NodeDownFn = std::function<void(net::NodeId)>;

  /// The master runs on `nodes[master_index]`.
  Glunix(proto::RpcLayer& rpc, std::vector<os::Node*> nodes,
         GlunixParams params, std::size_t master_index = 0);
  Glunix(const Glunix&) = delete;
  Glunix& operator=(const Glunix&) = delete;

  /// Installs daemons and begins heartbeats + console polling.
  void start();

  /// Submits a batch job needing `work` of CPU and carrying `memory_bytes`
  /// of state.  It runs on an idle machine, migrating as owners return,
  /// and survives node crashes via checkpoints.  Queued if no machine is
  /// idle right now.
  JobId run_remote(sim::Duration work, std::uint64_t memory_bytes,
                   DoneFn done);

  /// Submits a gang of `width` ranks, each needing `work_per_rank` of CPU
  /// and carrying `memory_per_rank` of state.  The gang starts when
  /// `width` idle machines exist.  When an owner returns to a rank's
  /// machine (or it crashes), the *whole gang* is suspended while that
  /// rank migrates — "while one process is migrating, the rest of the
  /// parallel program is unlikely to make much progress."  `done` reports
  /// when every rank has finished.
  JobId run_parallel(std::uint32_t width, sim::Duration work_per_rank,
                     std::uint64_t memory_per_rank, std::function<void()> done);

  /// Nodes whose consoles have been quiet for the idle window (as of the
  /// master's latest poll results).
  std::size_t idle_node_count() const;
  bool node_believed_up(net::NodeId id) const;

  void set_node_down_handler(NodeDownFn fn) { on_down_ = std::move(fn); }
  /// Invoked when a previously-dead node answers heartbeats again
  /// (reboot / hot-swap: the cluster absorbs it without a restart).
  void set_node_up_handler(NodeDownFn fn) { on_up_ = std::move(fn); }
  const GuestStats& stats() const { return stats_; }
  sim::Duration migration_downtime(std::uint64_t bytes) const {
    return cost_.migrate_time(bytes);
  }

 private:
  struct NodeInfo {
    os::Node* node = nullptr;
    bool up = true;
    std::uint32_t missed_beats = 0;
    /// Latest daemon-reported idle state.
    bool reported_idle = false;
    JobId hosting = 0;  // 0 = none
    /// Owner disturbances charged against the per-window budget.
    std::uint32_t evictions_in_window = 0;
  };

  struct Guest {
    sim::Duration remaining = 0;
    sim::Duration checkpointed_remaining = 0;
    std::uint64_t memory_bytes = 0;
    net::NodeId where = net::kInvalidNode;
    os::ProcessId pid = os::kNoProcess;
    sim::SimTime seg_start = 0;
    bool in_transit = false;  // migrating or restarting
    /// True once the guest has run anywhere (so a move must ship state).
    bool has_state = false;
    /// Bumped at every (re)launch; stale checkpoint timers check it.
    std::uint64_t epoch = 0;
    sim::SimTime submitted_at = 0;
    DoneFn done;
  };

  struct Gang {
    struct Rank {
      sim::Duration remaining = 0;
      std::size_t where = SIZE_MAX;  // info_ index, SIZE_MAX = unplaced
      os::ProcessId pid = os::kNoProcess;
      sim::SimTime seg_start = 0;
      bool running = false;  // spawned and not suspended
      bool done = false;
    };
    std::vector<Rank> ranks;
    std::uint64_t memory_bytes = 0;
    bool started = false;    // first placement happened
    std::uint32_t done_ranks = 0;
    std::uint32_t suspended_count = 0;  // outstanding whole-gang pauses
    sim::SimTime submitted_at = 0;
    std::function<void()> done;
  };

  void install_daemon(os::Node& node);
  void heartbeat_tick();
  void poll_tick();
  void reset_eviction_budgets();
  void displace(std::size_t machine, bool node_crashed);
  void try_start_gang(JobId id);
  void gang_rank_spawn(JobId id, std::size_t rank);
  void gang_pause(JobId id);
  void gang_resume(JobId id);
  void gang_displace(JobId id, std::size_t rank, bool crashed);
  void gang_try_replace(JobId id);
  /// Retires elapsed compute on every running rank of a gang.
  void gang_account(Gang& g);
  void declare_down(std::size_t idx);
  std::optional<std::size_t> pick_idle_machine() const;
  void place_guest(JobId id);
  void launch_on(JobId id, std::size_t idx);
  void arm_checkpoint(JobId id, std::uint64_t epoch);
  void evict(JobId id, bool node_crashed);
  void schedule_queue_scan();

  proto::RpcLayer& rpc_;
  std::vector<os::Node*> nodes_;
  GlunixParams params_;
  std::size_t master_;
  MigrationCostModel cost_;
  std::vector<NodeInfo> info_;
  std::unordered_map<JobId, Guest> guests_;
  std::unordered_map<JobId, Gang> gangs_;
  std::vector<JobId> waiting_;
  std::vector<JobId> waiting_gangs_;
  JobId next_job_ = 1;
  NodeDownFn on_down_;
  NodeDownFn on_up_;
  GuestStats stats_;
  bool started_ = false;
  obs::TrackId obs_track_;
  obs::Collector stats_obs_;

  net::NodeId master_node() const { return nodes_[master_]->id(); }
  sim::Engine& engine() { return rpc_.engine(); }
};

}  // namespace now::glunix
