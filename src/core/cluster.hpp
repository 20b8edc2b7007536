// The public face of the library: a Network Of Workstations in one object.
//
// Cluster wires the whole stack the paper argues for — commodity nodes, a
// switched low-latency fabric, Active-Message transport, RPC, and
// optionally GLUnix (global resource management), xFS (serverless file
// service on a software RAID), and the network-RAM registry — behind one
// configuration struct.  Examples and benches build on this instead of
// hand-assembling layers.
//
//   now::ClusterConfig cfg;
//   cfg.workstations = 100;            // the Berkeley prototype's scale
//   cfg.with_xfs = true;
//   now::Cluster now(cfg);
//   now.glunix().run_remote(...);      // use somebody's idle machine
//   now.fs().write(3, block, ...);     // serverless file service
//   now.run();
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exp/run_context.hpp"
#include "fault/fault.hpp"
#include "glunix/glunix.hpp"
#include "net/network.hpp"
#include "net/presets.hpp"
#include "net/topology.hpp"
#include "netram/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "os/node.hpp"
#include "proto/am.hpp"
#include "proto/nic_mux.hpp"
#include "proto/rpc.hpp"
#include "raid/raid.hpp"
#include "raid/stripe_groups.hpp"
#include "sim/engine.hpp"
#include "sim/parallel_engine.hpp"
#include "xfs/xfs.hpp"

namespace now {

enum class Fabric {
  kEthernet,
  kAtm,
  kFddiMedusa,
  kMyrinet,
  /// Building-scale hierarchical fat tree: racks under edge switches,
  /// spine trunks with a configurable oversubscription ratio.  Shape comes
  /// from ClusterConfig::building (see net::building_now).
  kBuildingNow,
};

/// Where a node's events execute in a multi-threaded run.
enum class Partitioning {
  /// Everything runs on the cluster's own engine — the serial path,
  /// regardless of `threads`.  Always byte-identical to a 1-thread run;
  /// the only safe choice when nodes share state outside the simulated
  /// network (cluster services, external driver objects).
  kAllGlobal,
  /// Each node's events run on its partition lane; cross-node interaction
  /// flows through the network's conservative-lookahead machinery.
  /// Requires a switched fabric (positive one-way latency), no shared
  /// cluster services (glunix/xfs/netram), and no AM loss injection.
  kNodeLocal,
};

struct ClusterConfig {
  std::uint32_t workstations = 32;
  Fabric fabric = Fabric::kAtm;
  /// Tree shape + per-link physics for Fabric::kBuildingNow (ignored by
  /// the flat fabrics).  Default: racks of 32 on Myrinet-class links, 4:1
  /// oversubscribed — override with net::building_now(...).
  net::HierarchicalParams building = net::building_now(32, 32, 4.0);
  proto::AmParams am;

  bool with_glunix = true;
  glunix::GlunixParams glunix;

  /// xFS + the software RAID + log-structured storage over all members.
  bool with_xfs = false;
  xfs::XfsParams xfs;
  /// Storage servers per stripe group (xFS-style).  Log segments stripe
  /// within one group, so segment-sized appends are full-stripe writes
  /// even in a 100-node building.  0 = one RAID spanning every member.
  std::size_t stripe_group_size = 8;

  /// Idle-memory registry for network RAM (donors managed by the caller).
  bool with_netram_registry = false;

  /// Failure schedule applied at construction (scripted events and/or
  /// seeded stochastic churn — see src/fault).  Empty = nothing breaks.
  fault::FaultPlan fault_plan;
  /// Recovery policy for injected failures (auto manager takeover,
  /// background RAID rebuild).
  fault::FaultPolicy fault_policy;

  std::uint64_t seed = 1;

  /// Worker threads for intra-run parallel execution.  Takes effect only
  /// with partitioning = kNodeLocal; clamped to the workstation count.
  /// 1 = the serial engine, byte-identical to every release so far.
  unsigned threads = 1;
  Partitioning partitioning = Partitioning::kAllGlobal;

  /// This run's isolation context, when the cluster is one task of a
  /// parallel sweep (exp::run_sweep sets it up).  When non-null, the
  /// cluster seeds itself from run->seed (overriding `seed`) and expects
  /// the context to be installed on the constructing thread — the
  /// constructor's obs::tracer()/obs::metrics() calls then resolve to the
  /// run's private instances, so concurrent Clusters share no mutable
  /// state.  Construct, drive, and destroy the cluster on that thread.
  exp::RunContext* run = nullptr;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  sim::Engine& engine() { return engine_; }
  os::Node& node(std::uint32_t i) { return *nodes_.at(i); }
  std::vector<os::Node*> node_ptrs();

  net::Network& network() { return *network_; }
  proto::NicMux& mux() { return *mux_; }
  proto::AmLayer& am() { return *am_; }
  proto::RpcLayer& rpc() { return *rpc_; }

  /// Requires with_glunix.
  glunix::Glunix& glunix() { return *glunix_; }
  /// Require with_xfs.
  xfs::Xfs& fs() { return *xfs_; }
  /// The storage backend behind the log (single RAID or stripe groups).
  raid::Storage& storage_backend() { return *storage_; }
  /// Uniform stats/health over either backend.
  raid::RaidStats storage_stats() const;
  bool storage_degraded() const;
  xfs::LogStore& log() { return *log_; }
  /// Requires with_netram_registry.
  netram::IdleMemoryRegistry& memory_registry() { return *registry_; }
  /// Fault injection over every enabled subsystem.  Always available;
  /// config.fault_plan is applied through it at construction.
  fault::FaultInjector& faults() { return *faults_; }

  // --- Observability ---------------------------------------------------
  /// The metrics registry every subsystem reports into: the run context's
  /// private registry when this cluster is a sweep task, else the
  /// process-wide default.
  obs::MetricsRegistry& metrics() {
    return config_.run != nullptr ? config_.run->metrics : obs::metrics();
  }
  /// Starts recording spans/instants into the trace ring buffer
  /// (`capacity` events; oldest are overwritten when it fills).
  void enable_tracing(std::size_t capacity = 1u << 20) {
    (config_.run != nullptr ? config_.run->tracer : obs::tracer())
        .enable(capacity);
  }
  /// Writes everything recorded so far as Chrome trace-event JSON —
  /// load the file in Perfetto (ui.perfetto.dev) or chrome://tracing.
  bool trace_to(const std::string& path) {
    return (config_.run != nullptr ? config_.run->tracer : obs::tracer())
        .export_chrome_json(path);
  }

  /// Drives the simulation — through the partitioned runner when one was
  /// configured, else the serial engine.
  void run() {
    if (pe_) {
      pe_->run();
    } else {
      engine_.run();
    }
  }
  void run_for(sim::Duration d) { run_until(engine_.now() + d); }
  void run_until(sim::SimTime t) {
    if (pe_) {
      pe_->run_until(t);
    } else {
      engine_.run_until(t);
    }
  }

  /// Lanes actually executing this cluster: 1 serially, the (possibly
  /// clamped) thread count under kNodeLocal partitioning.
  unsigned effective_threads() const { return pe_ ? pe_->lanes() : 1; }
  /// The partitioned runner, when one was configured (epoch/message
  /// counters for tests and benches).
  sim::ParallelEngine* parallel_engine() { return pe_.get(); }

  /// Crashes workstation `i` and propagates the failure to every enabled
  /// subsystem (RAID membership, xFS directory, network-RAM registry).
  /// GLUnix notices on its own, through heartbeats.
  void crash_node(std::uint32_t i);

  const ClusterConfig& config() const { return config_; }

 private:
  ClusterConfig config_;
  sim::Engine engine_;
  std::unique_ptr<sim::ParallelEngine> pe_;  // kNodeLocal && threads > 1
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<proto::NicMux> mux_;
  std::unique_ptr<proto::AmLayer> am_;
  std::unique_ptr<proto::RpcLayer> rpc_;
  std::vector<std::unique_ptr<os::Node>> nodes_;
  std::unique_ptr<glunix::Glunix> glunix_;
  std::unique_ptr<raid::SoftwareRaid> raid_;          // single-group mode
  std::unique_ptr<raid::StripeGroupArray> groups_;    // grouped mode
  raid::Storage* storage_ = nullptr;
  std::unique_ptr<xfs::LogStore> log_;
  std::unique_ptr<xfs::Xfs> xfs_;
  std::unique_ptr<netram::IdleMemoryRegistry> registry_;
  std::unique_ptr<fault::FaultInjector> faults_;
};

}  // namespace now
