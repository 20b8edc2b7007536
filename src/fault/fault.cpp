#include "fault/fault.hpp"

#include <algorithm>
#include <cassert>

#include "exp/seed.hpp"
#include "xfs/central_server.hpp"

namespace now::fault {

namespace {
// Stream ids for the per-node RNGs; the (process << 32 | node) derive index
// keeps them disjoint from each other and from the small task indices
// exp::run_sweep burns on the same base seed.
constexpr std::uint64_t kChurnStream = 1;
constexpr std::uint64_t kFlapStream = 2;
constexpr std::uint64_t kOwnerStream = 3;

sim::Duration draw_exp(sim::Pcg32& rng, sim::Duration mean) {
  return std::max<sim::Duration>(
      1, static_cast<sim::Duration>(
             rng.exponential(static_cast<double>(mean))));
}
}  // namespace

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kNodeCrash: return "node_crash";
    case FaultKind::kNodeRestart: return "node_restart";
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
    case FaultKind::kDiskFail: return "disk_fail";
    case FaultKind::kDiskReplace: return "disk_replace";
    case FaultKind::kOwnerReturn: return "owner_return";
  }
  return "?";
}

FaultInjector::FaultInjector(FaultTargets targets, std::uint64_t seed,
                             FaultPolicy policy)
    : t_(std::move(targets)),
      seed_(seed),
      policy_(policy),
      obs_track_(obs::tracer().track("fault")),
      stats_obs_("fault", [this](obs::Sink& s) {
        s.counter("node_crashes", stats_.node_crashes);
        s.counter("node_restarts", stats_.node_restarts);
        s.counter("link_downs", stats_.link_downs);
        s.counter("link_ups", stats_.link_ups);
        s.counter("disk_fails", stats_.disk_fails);
        s.counter("disk_replacements", stats_.disk_replacements);
        s.counter("owner_returns", stats_.owner_returns);
        s.counter("manager_takeovers", stats_.manager_takeovers);
        s.counter("rebuilds_started", stats_.rebuilds_started);
        s.counter("rebuilds_completed", stats_.rebuilds_completed);
        s.counter("donor_revocations", stats_.donor_revocations);
        s.summary("downtime_ms", stats_.downtime_ms);
        s.summary("rebuild_ms", stats_.rebuild_ms);
        s.summary("takeover_ms", stats_.takeover_ms);
        s.gauge("nodes_down", static_cast<double>(nodes_down()));
      }) {
  assert(t_.engine != nullptr && !t_.nodes.empty());
}

os::Node* FaultInjector::node(net::NodeId n) const {
  if (n < t_.nodes.size() && t_.nodes[n]->id() == n) return t_.nodes[n];
  for (os::Node* p : t_.nodes) {
    if (p->id() == n) return p;
  }
  return nullptr;
}

net::NodeId FaultInjector::next_alive(net::NodeId after) const {
  std::size_t at = t_.nodes.size();
  for (std::size_t i = 0; i < t_.nodes.size(); ++i) {
    if (t_.nodes[i]->id() == after) at = i;
  }
  if (at == t_.nodes.size()) return net::kInvalidNode;
  for (std::size_t k = 1; k <= t_.nodes.size(); ++k) {
    os::Node* cand = t_.nodes[(at + k) % t_.nodes.size()];
    if (cand->alive()) return cand->id();
  }
  return net::kInvalidNode;
}

sim::Pcg32 FaultInjector::stream_rng(std::uint64_t process,
                                     net::NodeId n) const {
  return sim::Pcg32(exp::derive_seed(seed_, (process << 32) | n), n);
}

bool FaultInjector::node_down(net::NodeId n) const {
  return down_since_.contains(n);
}

std::size_t FaultInjector::nodes_down() const { return down_since_.size(); }

void FaultInjector::schedule_event(const FaultEvent& ev) {
  t_.engine->schedule_at(ev.at, [this, ev] { inject(ev); });
}

void FaultInjector::inject(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kNodeCrash: crash_node(ev.node); break;
    case FaultKind::kNodeRestart: restart_node(ev.node); break;
    case FaultKind::kLinkDown: fail_link(ev.node); break;
    case FaultKind::kLinkUp: restore_link(ev.node); break;
    case FaultKind::kDiskFail: fail_disk(ev.node); break;
    case FaultKind::kDiskReplace: replace_disk(ev.node); break;
    case FaultKind::kOwnerReturn: owner_returned(ev.node); break;
  }
}

void FaultInjector::apply(const FaultPlan& plan) {
  for (const FaultEvent& ev : plan.events) schedule_event(ev);
  if (!plan.stochastic()) return;
  assert(plan.horizon > 0 &&
         "a stochastic FaultPlan needs FaultPlan::horizon (see until())");

  // Materialize every draw now: the schedule depends only on the injector
  // seed, never on what the workload got up to in the meantime.
  auto targets = [&](const std::vector<net::NodeId>& list) {
    if (!list.empty()) return list;
    std::vector<net::NodeId> all;
    all.reserve(t_.nodes.size());
    for (os::Node* n : t_.nodes) all.push_back(n->id());
    return all;
  };

  if (plan.node_mttf > 0) {
    for (net::NodeId n : targets(plan.churn_nodes)) {
      sim::Pcg32 rng = stream_rng(kChurnStream, n);
      sim::SimTime t = 0;
      while (true) {
        t += draw_exp(rng, plan.node_mttf);
        if (t >= plan.horizon) break;
        schedule_event({t, FaultKind::kNodeCrash, n});
        t += draw_exp(rng, plan.node_mttr);
        if (t >= plan.horizon) break;
        schedule_event({t, FaultKind::kNodeRestart, n});
      }
    }
  }
  if (plan.link_mtbf > 0) {
    for (net::NodeId n : targets(plan.flap_nodes)) {
      sim::Pcg32 rng = stream_rng(kFlapStream, n);
      sim::SimTime t = 0;
      while (true) {
        t += draw_exp(rng, plan.link_mtbf);
        if (t >= plan.horizon) break;
        schedule_event({t, FaultKind::kLinkDown, n});
        t += draw_exp(rng, plan.link_mttr);
        if (t >= plan.horizon) break;
        schedule_event({t, FaultKind::kLinkUp, n});
      }
    }
  }
  if (plan.owner_return_mean > 0) {
    for (net::NodeId n : targets(plan.owner_nodes)) {
      sim::Pcg32 rng = stream_rng(kOwnerStream, n);
      sim::SimTime t = 0;
      while (true) {
        t += draw_exp(rng, plan.owner_return_mean);
        if (t >= plan.horizon) break;
        schedule_event({t, FaultKind::kOwnerReturn, n});
      }
    }
  }
}

void FaultInjector::crash_node(net::NodeId n) {
  os::Node* nd = node(n);
  if (nd == nullptr || !nd->alive()) return;  // already down
  nd->crash();
  down_since_[n] = t_.engine->now();
  ++stats_.node_crashes;
  obs::tracer().instant(n, obs_track_, "crash");

  if (t_.storage != nullptr && t_.storage->is_member(n) &&
      !t_.storage->member_down(n)) {
    t_.storage->member_failed(n);
  }
  if (t_.xfs != nullptr) {
    t_.xfs->client_crashed(n);
    auto_takeover_after(n);
  }
  if (t_.registry != nullptr && t_.registry->is_donor(n)) {
    t_.registry->donor_crashed(n);
  }
  if (t_.central != nullptr && t_.central->server_id() == n) {
    t_.central->server_crashed();
  }
  // GLUnix is not poked: it discovers the death through missed heartbeats
  // and restarts guests from their checkpoints, exactly as it would have.
}

void FaultInjector::auto_takeover_after(net::NodeId failed) {
  if (!policy_.auto_takeover || t_.xfs == nullptr) return;
  const sim::SimTime crashed_at = t_.engine->now();
  t_.engine->schedule_in(
      policy_.takeover_detection_delay, [this, failed, crashed_at] {
        if (!node_down(failed)) return;           // rebooted first
        if (!t_.xfs->is_manager(failed)) return;  // duty already moved
        const net::NodeId succ = next_alive(failed);
        if (succ == net::kInvalidNode) return;
        t_.xfs->manager_takeover(
            failed, succ, [this, succ, crashed_at] {
              ++stats_.manager_takeovers;
              stats_.takeover_ms.add(
                  sim::to_ms(t_.engine->now() - crashed_at));
              obs::tracer().complete(succ, obs_track_, "takeover",
                                     crashed_at, t_.engine->now());
            });
      });
}

void FaultInjector::restart_node(net::NodeId n) {
  os::Node* nd = node(n);
  if (nd == nullptr || nd->alive()) return;
  nd->reboot();
  auto it = down_since_.find(n);
  if (it != down_since_.end()) {
    stats_.downtime_ms.add(sim::to_ms(t_.engine->now() - it->second));
    obs::tracer().complete(n, obs_track_, "node_down", it->second,
                           t_.engine->now());
    down_since_.erase(it);
  }
  ++stats_.node_restarts;

  if (policy_.auto_rebuild && t_.storage != nullptr &&
      t_.storage->member_down(n) && t_.storage->redundant()) {
    start_rebuild(n);
  }
  if (t_.central != nullptr && t_.central->server_id() == n) {
    t_.central->server_restarted();
  }
}

void FaultInjector::start_rebuild(net::NodeId member) {
  os::Node* rep = node(member);
  if (rep == nullptr || !rep->alive()) return;
  ++stats_.rebuilds_started;
  const sim::SimTime began = t_.engine->now();
  t_.storage->reconstruct_member(
      member, *rep,
      [this, member, began] {
        ++stats_.rebuilds_completed;
        stats_.rebuild_ms.add(sim::to_ms(t_.engine->now() - began));
        obs::tracer().complete(member, obs_track_, "rebuild", began,
                               t_.engine->now());
        // The member may have crashed again while its stripe units were
        // in flight; the freshly rebuilt disk is then lost with it.
        if (node_down(member)) t_.storage->member_failed(member);
      },
      policy_.rebuild_bytes_per_member);
}

void FaultInjector::fail_link(net::NodeId n) {
  if (t_.network == nullptr || !t_.network->link_up(n)) return;
  t_.network->set_link_up(n, false);
  ++stats_.link_downs;
  obs::tracer().instant(n, obs_track_, "link_down");
}

void FaultInjector::restore_link(net::NodeId n) {
  if (t_.network == nullptr || t_.network->link_up(n)) return;
  t_.network->set_link_up(n, true);
  ++stats_.link_ups;
  obs::tracer().instant(n, obs_track_, "link_up");
}

void FaultInjector::fail_disk(net::NodeId n) {
  if (t_.storage == nullptr || !t_.storage->is_member(n) ||
      t_.storage->member_down(n)) {
    return;
  }
  t_.storage->member_failed(n);
  ++stats_.disk_fails;
  obs::tracer().instant(n, obs_track_, "disk_fail");
}

void FaultInjector::replace_disk(net::NodeId n) {
  if (t_.storage == nullptr || !t_.storage->member_down(n) ||
      !t_.storage->redundant()) {
    return;
  }
  os::Node* nd = node(n);
  if (nd == nullptr || !nd->alive()) return;
  ++stats_.disk_replacements;
  obs::tracer().instant(n, obs_track_, "disk_replace");
  start_rebuild(n);
}

void FaultInjector::owner_returned(net::NodeId n) {
  os::Node* nd = node(n);
  if (nd == nullptr || !nd->alive()) return;  // nobody types on a dead box
  nd->user_activity();
  ++stats_.owner_returns;
  obs::tracer().instant(n, obs_track_, "owner_return");
  // GLUnix's 2-second console poll sees the activity and displaces any
  // guest on its own; network RAM must give the DRAM back too.
  if (t_.registry != nullptr && t_.registry->is_donor(n)) {
    t_.registry->revoke_donor(n);
    ++stats_.donor_revocations;
  }
}

}  // namespace now::fault
