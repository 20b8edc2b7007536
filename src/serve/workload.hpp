// now::serve — the serving driver: population x mix x SLOs over one
// cluster.
//
// ServeWorkload is what turns the reproduction into a service.  It owns a
// ClientPopulation (when requests arrive), a RequestMix (what each request
// does), and an SloTracker (how the answer is judged), and drives them
// against real backends:
//
//   file classes    -> an xfs::FileService: xfs::Xfs (serverless) or
//                      xfs::CentralServerFs (the incumbent), whichever the
//                      Backends struct carries;
//   cache classes   -> coopcache::CoopCacheSim, charged at the study's
//                      per-level costs (local / peer memory / server
//                      memory / server disk);
//   compute classes -> glunix::Glunix::run_remote — the job really queues
//                      for an idle machine and really migrates.
//
// Determinism contract: every draw comes from seed-derived per-client
// streams (pure functions of the seed), and arrivals are *streamed* — each
// open client lazily pulls its next instant from its ArrivalStream and
// re-arms one timer, so memory and engine-queue depth stay O(clients)
// at any horizon or rate.
//
// Serving always runs on the cluster's serial engine: xFS, the
// cooperative cache and GLUnix touch many nodes' state per event, and the
// central server keeps one unlocked stats block.
//
// Session churn: when PopulationParams::sessions is enabled, clients log
// in and out over the run.  Open arrivals are filtered inside
// ArrivalStream; closed loops check their own SessionTimeline cursor and
// park until the next login; a login tally gives the live headcount,
// which now::obs reads as the serve.sessions_active gauge.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "coopcache/coopcache.hpp"
#include "glunix/glunix.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "replay/cursor.hpp"
#include "serve/arrivals.hpp"
#include "serve/request_mix.hpp"
#include "serve/slo.hpp"
#include "sim/engine.hpp"
#include "xfs/central_server.hpp"
#include "xfs/xfs.hpp"

namespace now::serve {

/// The subsystems requests are served by.  File classes need one of
/// xfs/central (never both): the workload reaches either only through
/// xfs::FileService, whose per-op status is what SloTracker records.
/// Cache classes need coop; compute classes need glunix.  Null pointers for classes the mix never draws are fine.
struct Backends {
  xfs::Xfs* xfs = nullptr;
  xfs::CentralServerFs* central = nullptr;
  coopcache::CoopCacheSim* coop = nullptr;
  glunix::Glunix* glunix = nullptr;
  /// Per-level costs charged to kCacheRead requests.
  coopcache::CacheCosts coop_costs;
};

/// The third arrival source, next to the population's open and closed
/// clients: a recorded trace replayed open-loop.  The trace's recorded
/// client ids are folded onto `clients` replay clients (id % clients),
/// each of which owns an *independent* cursor over its own file handle,
/// so no reader state is shared across clients.  Replay clients get ids above
/// the population's and issue file reads/writes through the first
/// kFileRead / kFileWrite class in the mix (both must exist); recorded
/// blocks fold onto that class's working set.
struct ReplayArrivals {
  std::string path;  // empty = replay disabled
  std::uint32_t clients = 0;
  /// Recorded timestamps are divided by this (2 = replay twice as fast).
  double time_scale = 1.0;
  bool enabled() const { return !path.empty() && clients > 0; }
};

struct ServeConfig {
  PopulationParams population;
  std::vector<RequestClass> classes;
  /// Cluster node each population client issues from (client i uses
  /// client_nodes[i % size]).  Must be non-empty.
  std::vector<net::NodeId> client_nodes;
  ReplayArrivals replay;
  std::uint64_t seed = 1;
};

struct ServeTotals {
  std::uint64_t arrivals = 0;  // requests issued
  std::uint64_t open_arrivals = 0;
  std::uint64_t closed_arrivals = 0;
  std::uint64_t replayed_arrivals = 0;
  std::uint64_t completed = 0;
  /// arrivals / horizon — the offered load actually generated.
  double offered_per_sec = 0.0;
};

class ServeWorkload {
 public:
  /// The workload must outlive the run; completions reference it.
  ServeWorkload(sim::Engine& engine, Backends backends, ServeConfig cfg);
  ServeWorkload(const ServeWorkload&) = delete;
  ServeWorkload& operator=(const ServeWorkload&) = delete;

  /// Arms every open client's lazy arrival chain and the closed loops
  /// (one pending timer per client).  Call once, then run the engine.
  void start();

  SloTracker& slo() { return slo_; }
  const SloTracker& slo() const { return slo_; }
  ClientPopulation& population() { return pop_; }
  RequestMix& mix() { return mix_; }
  ServeTotals totals() const;
  /// Requests issued but not yet completed (in flight when the run ended).
  std::uint64_t in_flight() const;
  /// Clients currently inside a login session (the sessions_active
  /// gauge; constant clients() when churn is disabled).
  std::uint64_t sessions_active() const;

 private:
  /// A closed client's session cursor (open clients filter inside their
  /// ArrivalStream instead).
  struct ClosedSession {
    SessionTimeline timeline;
    std::optional<Session> window;
  };

  void arm_open(std::uint32_t client);
  void arm_replay(std::uint32_t replay_client);
  void arm_presence(std::uint32_t client, std::optional<Session> window);
  void issue(std::uint32_t client, bool closed);
  void issue_replayed(std::uint32_t client, std::uint64_t block,
                      bool is_write);
  void issue_file(std::uint32_t client, std::size_t cls, xfs::BlockId block,
                  bool is_write, sim::SimTime t0, bool closed);
  void finish(std::uint32_t client, std::size_t cls, sim::SimTime t0,
              bool ok, bool closed);
  void schedule_closed(std::uint32_t client);
  void issue_closed_in_session(std::uint32_t client);
  net::NodeId node_of(std::uint32_t client) const {
    return cfg_.client_nodes[client % cfg_.client_nodes.size()];
  }

  sim::Engine& engine_;
  Backends b_;
  /// b_.xfs or b_.central, resolved once; null without a file backend.
  xfs::FileService* files_ = nullptr;
  ServeConfig cfg_;
  ClientPopulation pop_;
  RequestMix mix_;
  SloTracker slo_;
  /// Arrival and completion tallies; offered_per_sec is filled by
  /// totals().
  ServeTotals counts_;
  /// Clients logged in right now (logins - logouts).
  std::uint64_t sessions_ = 0;
  std::vector<ArrivalStream> open_streams_;     // one per open client
  std::vector<ClosedSession> closed_sessions_;  // one per closed client
  /// One independent trace cursor per replay client (own file handle).
  std::vector<std::unique_ptr<replay::TraceCursor>> replay_cursors_;
  std::size_t replay_read_cls_ = 0;
  std::size_t replay_write_cls_ = 0;
  std::vector<SessionTimeline> presence_;       // login chains (churn only)
  obs::TrackId obs_track_;
  bool started_ = false;
  obs::Collector stats_obs_;
};

}  // namespace now::serve
