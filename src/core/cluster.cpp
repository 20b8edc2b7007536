#include "core/cluster.hpp"

#include <cassert>

#include "net/hierarchical.hpp"
#include "net/presets.hpp"
#include "net/shared_bus.hpp"
#include "netram/pager.hpp"

namespace now {

namespace {
std::unique_ptr<net::Network> make_fabric(sim::Engine& engine,
                                          const ClusterConfig& cfg) {
  switch (cfg.fabric) {
    case Fabric::kEthernet:
      return std::make_unique<net::SharedBusNetwork>(
          engine, net::ethernet_10mbps(), cfg.seed);
    case Fabric::kAtm:
      return std::make_unique<net::HierarchicalNetwork>(engine,
                                                        net::atm_155mbps());
    case Fabric::kFddiMedusa:
      return std::make_unique<net::HierarchicalNetwork>(engine,
                                                        net::fddi_medusa());
    case Fabric::kMyrinet:
      return std::make_unique<net::HierarchicalNetwork>(engine,
                                                        net::myrinet());
    case Fabric::kBuildingNow:
      return std::make_unique<net::HierarchicalNetwork>(engine,
                                                        cfg.building);
  }
  return nullptr;
}
}  // namespace

Cluster::Cluster(ClusterConfig config) : config_(std::move(config)) {
  assert(config_.workstations >= 2);
  if (config_.run != nullptr) {
    assert(exp::current_context() == config_.run &&
           "ClusterConfig::run must be installed on the constructing "
           "thread (exp::ScopedRunContext / exp::run_sweep)");
    config_.seed = config_.run->seed;
  }
  // Trace timestamps follow this cluster's simulated clock.  Inside a run
  // context this binds the run's private tracer, not the process one.
  obs::tracer().set_clock(&engine_);
  network_ = make_fabric(engine_, config_);
  mux_ = std::make_unique<proto::NicMux>(*network_);
  am_ = std::make_unique<proto::AmLayer>(*mux_, config_.am, config_.seed);
  rpc_ = std::make_unique<proto::RpcLayer>(*am_);

  // Partitioned execution (opt-in): each node's events run on a lane of a
  // ParallelEngine instead of the cluster engine.  Only workloads whose
  // nodes interact exclusively through the network qualify — the asserts
  // spell the contract out; release builds fall back to serial if it does
  // not hold rather than race.
  if (config_.partitioning == Partitioning::kNodeLocal &&
      config_.threads > 1) {
    const sim::Duration lookahead = network_->min_latency();
    assert(lookahead > 0 &&
           "kNodeLocal needs a switched fabric: shared media (kEthernet) "
           "have zero safe lookahead");
    assert(!config_.with_glunix && !config_.with_xfs &&
           !config_.with_netram_registry &&
           "kNodeLocal requires a partition-clean workload: cluster "
           "services touch many nodes' state per event");
    assert(config_.am.loss_probability == 0.0 &&
           "AM loss injection draws from one RNG shared across lanes");
    const bool clean = lookahead > 0 && !config_.with_glunix &&
                       !config_.with_xfs && !config_.with_netram_registry &&
                       config_.am.loss_probability == 0.0;
    if (clean) {
      sim::ParallelConfig pc;
      pc.threads = config_.threads;
      pc.nodes = config_.workstations;
      pc.lookahead = lookahead;
      // Workers must resolve obs::metrics()/obs::tracer() to the same
      // instances as the constructing thread (which may be inside a sweep's
      // ScopedRunContext), so capture the ambient bindings now and install
      // them on every lane.
      obs::MetricsRegistry* m = &obs::metrics();
      obs::Tracer* tr = &obs::tracer();
      pc.worker_init = [m, tr] {
        obs::set_thread_metrics(m);
        obs::set_thread_tracer(tr);
      };
      pe_ = std::make_unique<sim::ParallelEngine>(engine_, pc);
    }
  }

  for (std::uint32_t i = 0; i < config_.workstations; ++i) {
    // Per-node CPU seeds, so local schedulers do not run in lockstep.
    os::NodeParams p;
    p.cpu.seed = config_.seed * 1000 + i + 1;
    sim::Engine& node_engine = pe_ ? pe_->engine_for(i) : engine_;
    nodes_.push_back(std::make_unique<os::Node>(node_engine, i, p));
    mux_->attach_node(*nodes_.back());
    rpc_->bind(*nodes_.back());
  }
  // After every node is attached, so backends pre-size per-node state.
  if (pe_) network_->set_domain(pe_.get());

  if (config_.with_glunix) {
    glunix_ = std::make_unique<glunix::Glunix>(*rpc_, node_ptrs(),
                                               config_.glunix);
    glunix_->start();
  }

  if (config_.with_xfs) {
    for (auto& n : nodes_) raid::install_storage_service(*rpc_, *n);
    raid::RaidParams rp;
    rp.stripe_unit = xfs::kBlockBytes;
    const std::size_t g = config_.stripe_group_size;
    if (g >= 2 && nodes_.size() >= 2 * g) {
      // xFS-style stripe groups: one group per log segment band.
      const std::uint64_t band =
          static_cast<std::uint64_t>(config_.xfs.segment_blocks) *
          xfs::kBlockBytes;
      groups_ = std::make_unique<raid::StripeGroupArray>(
          *rpc_, node_ptrs(), rp, g, band);
      storage_ = groups_.get();
    } else {
      raid_ = std::make_unique<raid::SoftwareRaid>(*rpc_, node_ptrs(), rp);
      storage_ = raid_.get();
    }
    log_ = std::make_unique<xfs::LogStore>(*storage_,
                                           config_.xfs.segment_blocks);
    xfs_ = std::make_unique<xfs::Xfs>(*rpc_, *log_, node_ptrs(),
                                      config_.xfs);
    xfs_->start();
  }

  if (config_.with_netram_registry) {
    registry_ = std::make_unique<netram::IdleMemoryRegistry>();
    for (auto& n : nodes_) {
      netram::install_donor_service(*rpc_, *n);
    }
  }

  // Fault injection sits above everything else: it only drives the
  // reaction paths the subsystems already expose.
  fault::FaultTargets targets;
  targets.engine = &engine_;
  targets.nodes = node_ptrs();
  targets.network = network_.get();
  targets.storage = storage_;
  targets.xfs = xfs_.get();
  targets.registry = registry_.get();
  faults_ = std::make_unique<fault::FaultInjector>(
      std::move(targets), config_.seed, config_.fault_policy);
  if (!config_.fault_plan.empty()) faults_->apply(config_.fault_plan);
}

Cluster::~Cluster() = default;

std::vector<os::Node*> Cluster::node_ptrs() {
  std::vector<os::Node*> v;
  v.reserve(nodes_.size());
  for (auto& n : nodes_) v.push_back(n.get());
  return v;
}

raid::RaidStats Cluster::storage_stats() const {
  if (groups_) return groups_->stats();
  if (raid_) return raid_->stats();
  return raid::RaidStats{};
}

bool Cluster::storage_degraded() const {
  return storage_ != nullptr && storage_->degraded();
}

void Cluster::crash_node(std::uint32_t i) {
  os::Node& n = node(i);
  n.crash();
  if (storage_ != nullptr) storage_->member_failed(n.id());
  if (xfs_) xfs_->client_crashed(n.id());
  if (registry_) registry_->donor_crashed(n.id());
  // GLUnix discovers the death through missed heartbeats, as it would in
  // the real system.  Manager takeover stays with the caller (or with
  // FaultInjector::crash_node, whose policy arranges it automatically).
}

}  // namespace now
