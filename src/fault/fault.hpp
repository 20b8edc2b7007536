// now::fault — unified fault injection for a Network Of Workstations.
//
// The paper's availability argument is that a building-wide system built
// from failure-prone parts must *expect* failure: workstations crash and
// reboot, owners reclaim their machines, disks die, links flap.  Every
// subsystem in this repo already carries its own reaction machinery —
// RAID-5 degraded reads and parity rebuilds, xFS manager takeover and
// client-crash recovery, GLUnix heartbeats and checkpoint restarts, netram
// donor revocation, AM epoch resync — but nothing *caused* the failures.
//
// This module is the cause.  A FaultPlan is a schedule: scripted one-shot
// events plus seeded stochastic processes (exponential MTTF/MTTR node
// churn, link flaps, owner-return bursts).  A FaultInjector applies the
// plan to a set of targets (the subsystems of one Cluster) and drives the
// existing reactions — it never fakes an outcome; a disk replace triggers
// a real parity rebuild with real reconstruction traffic through the
// simulated disks and network.
//
// Determinism: every stochastic draw comes from a Pcg32 whose seed is
// exp::derive_seed(injector_seed, (process << 32) | node), so a plan's
// entire schedule is a pure function of the injector seed — identical
// under --jobs 1 and --jobs N, and independent of what the workload does.
// The whole schedule is materialized when apply() runs, before any
// workload event has fired.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"
#include "netram/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "os/node.hpp"
#include "raid/raid.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "xfs/xfs.hpp"

namespace now::xfs {
class CentralServerFs;
}  // namespace now::xfs

namespace now::fault {

enum class FaultKind : std::uint8_t {
  kNodeCrash,    // os::Node::crash + every subsystem reaction
  kNodeRestart,  // os::Node::reboot + background RAID rebuild
  kLinkDown,     // NIC unplugged: packets to/from the node drop
  kLinkUp,       // link restored; AM retries resync on their own
  kDiskFail,     // storage member lost, node itself stays up
  kDiskReplace,  // fresh disk: background parity rebuild
  kOwnerReturn,  // console activity: GLUnix displaces, netram revokes
};

const char* to_string(FaultKind k);

struct FaultEvent {
  sim::SimTime at = 0;
  FaultKind kind = FaultKind::kNodeCrash;
  net::NodeId node = net::kInvalidNode;
};

/// A failure schedule: scripted events plus optional stochastic processes.
/// Builders chain:
///
///   fault::FaultPlan plan;
///   plan.crash_at(10 * sim::kSecond, 3)
///       .restart_at(25 * sim::kSecond, 3)
///       .with_node_churn(120 * sim::kSecond, 10 * sim::kSecond)
///       .until(5 * sim::kMinute);
struct FaultPlan {
  std::vector<FaultEvent> events;

  /// Crash/restart churn: per-node exponential time-to-failure with mean
  /// `node_mttf`, then exponential repair with mean `node_mttr`.  0 = off.
  sim::Duration node_mttf = 0;
  sim::Duration node_mttr = 10 * sim::kSecond;
  /// Nodes subject to churn; empty = every target node.
  std::vector<net::NodeId> churn_nodes;

  /// Link flaps: exponential up-time with mean `link_mtbf`, down-time with
  /// mean `link_mttr`.  0 = off.
  sim::Duration link_mtbf = 0;
  sim::Duration link_mttr = 1 * sim::kSecond;
  std::vector<net::NodeId> flap_nodes;

  /// Owner-return bursts: exponential inter-arrival of console activity
  /// with this mean.  0 = off.
  sim::Duration owner_return_mean = 0;
  std::vector<net::NodeId> owner_nodes;

  /// Stochastic processes schedule no event at or past this instant, so a
  /// run with churn still drains.  Required (> 0) when any process is on;
  /// a node down at the horizon simply stays down.
  sim::SimTime horizon = 0;

  FaultPlan& crash_at(sim::SimTime t, net::NodeId n) {
    events.push_back({t, FaultKind::kNodeCrash, n});
    return *this;
  }
  FaultPlan& restart_at(sim::SimTime t, net::NodeId n) {
    events.push_back({t, FaultKind::kNodeRestart, n});
    return *this;
  }
  FaultPlan& link_down_at(sim::SimTime t, net::NodeId n) {
    events.push_back({t, FaultKind::kLinkDown, n});
    return *this;
  }
  FaultPlan& link_up_at(sim::SimTime t, net::NodeId n) {
    events.push_back({t, FaultKind::kLinkUp, n});
    return *this;
  }
  FaultPlan& disk_fail_at(sim::SimTime t, net::NodeId n) {
    events.push_back({t, FaultKind::kDiskFail, n});
    return *this;
  }
  FaultPlan& disk_replace_at(sim::SimTime t, net::NodeId n) {
    events.push_back({t, FaultKind::kDiskReplace, n});
    return *this;
  }
  FaultPlan& owner_return_at(sim::SimTime t, net::NodeId n) {
    events.push_back({t, FaultKind::kOwnerReturn, n});
    return *this;
  }
  FaultPlan& with_node_churn(sim::Duration mttf, sim::Duration mttr,
                             std::vector<net::NodeId> nodes = {}) {
    node_mttf = mttf;
    node_mttr = mttr;
    churn_nodes = std::move(nodes);
    return *this;
  }
  FaultPlan& with_link_flaps(sim::Duration mtbf, sim::Duration mttr,
                             std::vector<net::NodeId> nodes = {}) {
    link_mtbf = mtbf;
    link_mttr = mttr;
    flap_nodes = std::move(nodes);
    return *this;
  }
  FaultPlan& with_owner_returns(sim::Duration mean,
                                std::vector<net::NodeId> nodes = {}) {
    owner_return_mean = mean;
    owner_nodes = std::move(nodes);
    return *this;
  }
  FaultPlan& until(sim::SimTime t) {
    horizon = t;
    return *this;
  }

  bool stochastic() const {
    return node_mttf > 0 || link_mtbf > 0 || owner_return_mean > 0;
  }
  bool empty() const { return events.empty() && !stochastic(); }
};

struct FaultStats {
  std::uint64_t node_crashes = 0;
  std::uint64_t node_restarts = 0;
  std::uint64_t link_downs = 0;
  std::uint64_t link_ups = 0;
  std::uint64_t disk_fails = 0;
  std::uint64_t disk_replacements = 0;
  std::uint64_t owner_returns = 0;
  std::uint64_t manager_takeovers = 0;  // auto-takeovers this injector drove
  std::uint64_t rebuilds_started = 0;
  std::uint64_t rebuilds_completed = 0;
  std::uint64_t donor_revocations = 0;
  /// Crash-to-restart time of each node that came back, milliseconds.
  sim::Summary downtime_ms;
  /// Start-to-finish time of each completed member rebuild, milliseconds.
  sim::Summary rebuild_ms;
  /// Crash-to-takeover time of each auto-takeover, milliseconds.
  sim::Summary takeover_ms;
};

/// The subsystems one injector drives.  `engine` and `nodes` are required;
/// everything else is optional — a null pointer just means that class of
/// reaction is skipped (e.g. no xFS, no manager takeover).  Cluster fills
/// this in from its own wiring.
struct FaultTargets {
  sim::Engine* engine = nullptr;
  std::vector<os::Node*> nodes;
  net::Network* network = nullptr;
  raid::Storage* storage = nullptr;
  xfs::Xfs* xfs = nullptr;
  netram::IdleMemoryRegistry* registry = nullptr;
  /// The incumbent file system, when a comparison runs one.  Benches build
  /// CentralServerFs after the Cluster, so this is usually attached late
  /// via FaultInjector::attach_central().
  xfs::CentralServerFs* central = nullptr;
};

/// Recovery policy: what the injector does *for* the cluster, modeling the
/// operators and daemons a real building would have.
struct FaultPolicy {
  /// When a node holding xFS manager duty crashes, re-point its duty at
  /// the next live node — after the detection delay a failure detector
  /// (heartbeat timeout) would impose.  In-flight xFS ops ride the gap out
  /// through their own timeout+retry ladder.
  bool auto_takeover = true;
  sim::Duration takeover_detection_delay = 500 * sim::kMillisecond;
  /// After a restart or disk replace, rebuild the storage member in the
  /// background (real reconstruction reads off the survivors).
  bool auto_rebuild = true;
  std::uint64_t rebuild_bytes_per_member = 1ull << 20;
};

class FaultInjector {
 public:
  FaultInjector(FaultTargets targets, std::uint64_t seed,
                FaultPolicy policy = {});
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every event the plan describes (scripted + materialized
  /// stochastic draws) onto the engine.  May be called more than once;
  /// each call schedules independently.
  void apply(const FaultPlan& plan);

  // --- Direct injection (also usable without a plan, e.g. from tests) ---
  void crash_node(net::NodeId n);
  void restart_node(net::NodeId n);
  void fail_link(net::NodeId n);
  void restore_link(net::NodeId n);
  void fail_disk(net::NodeId n);
  void replace_disk(net::NodeId n);
  void owner_returned(net::NodeId n);

  /// Registers the incumbent file system so crashes of its server node
  /// drop the server cache (cold restart).  Call before the first fault
  /// fires; passing nullptr detaches.
  void attach_central(xfs::CentralServerFs* central) { t_.central = central; }

  const FaultStats& stats() const { return stats_; }
  bool node_down(net::NodeId n) const;
  std::size_t nodes_down() const;
  const FaultPolicy& policy() const { return policy_; }

 private:
  void inject(const FaultEvent& ev);
  void schedule_event(const FaultEvent& ev);
  void auto_takeover_after(net::NodeId failed);
  void start_rebuild(net::NodeId member);
  os::Node* node(net::NodeId n) const;
  /// Next live node after `after` in id order (cyclic); kInvalidNode if
  /// everyone is dead.
  net::NodeId next_alive(net::NodeId after) const;
  /// Per-(process, node) RNG, seed-derived: the schedule is a pure
  /// function of the injector seed.
  sim::Pcg32 stream_rng(std::uint64_t process, net::NodeId n) const;

  FaultTargets t_;
  std::uint64_t seed_;
  FaultPolicy policy_;
  FaultStats stats_;
  /// Crash instants of currently-down nodes, for downtime spans.
  std::unordered_map<net::NodeId, sim::SimTime> down_since_;

  obs::TrackId obs_track_;
  obs::Collector stats_obs_;
};

}  // namespace now::fault
