#include "glunix/glunix.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "sim/log.hpp"

namespace now::glunix {

namespace {
/// Master-side method: a daemon reports a guest's completion.
constexpr proto::MethodId kGluGuestDone = 124;

using proto::DoneNote;
using proto::SpawnAck;
using proto::SpawnReq;
}  // namespace

Glunix::Glunix(proto::RpcLayer& rpc, std::vector<os::Node*> nodes,
               GlunixParams params, std::size_t master_index)
    : rpc_(rpc), nodes_(std::move(nodes)), params_(params),
      master_(master_index), cost_(params.migration),
      obs_track_(obs::tracer().track("glunix")),
      stats_obs_("glunix", [this](obs::Sink& s) {
        s.counter("launched", stats_.launched);
        s.counter("completed", stats_.completed);
        s.counter("migrations", stats_.migrations);
        s.counter("crash_restarts", stats_.crash_restarts);
        s.gauge("waiting_peak", static_cast<double>(stats_.waiting_peak));
        s.counter("gangs_launched", stats_.gangs_launched);
        s.counter("gangs_completed", stats_.gangs_completed);
        s.counter("gang_pauses", stats_.gang_pauses);
        s.counter("owner_evictions", stats_.owner_evictions);
        s.gauge("idle_nodes", static_cast<double>(idle_node_count()));
      }) {
  assert(!nodes_.empty() && master_ < nodes_.size());
  info_.resize(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) info_[i].node = nodes_[i];
}

void Glunix::start() {
  assert(!started_);
  started_ = true;
  for (os::Node* n : nodes_) install_daemon(*n);

  // Master-side completion notifications.
  rpc_.register_method(
      master_node(), kGluGuestDone,
      [this](net::NodeId from, proto::Body req,
             proto::RpcLayer::ReplyFn reply) {
        reply(16, {});
        const auto note = std::get<DoneNote>(req);
        const auto git = gangs_.find(note.job);
        if (git != gangs_.end()) {
          Gang& gang = git->second;
          if (note.rank >= gang.ranks.size()) return;
          Gang::Rank& r = gang.ranks[note.rank];
          if (r.where == SIZE_MAX || info_[r.where].node->id() != from) {
            return;  // orphan from a pre-migration home
          }
          if (r.done) return;
          r.done = true;
          r.running = false;
          info_[r.where].hosting = 0;
          r.where = SIZE_MAX;
          if (++gang.done_ranks == gang.ranks.size()) {
            auto cb = std::move(gang.done);
            const sim::SimTime submitted = gang.submitted_at;
            gangs_.erase(git);
            ++stats_.gangs_completed;
            obs::tracer().complete(from, obs_track_, "glunix.gang",
                                   submitted, engine().now());
            if (cb) cb();
          }
          schedule_queue_scan();
          return;
        }
        const auto it = guests_.find(note.job);
        if (it == guests_.end()) return;  // stale completion after crash
        if (it->second.where != from) return;  // orphan from an old home
        Guest g = std::move(it->second);
        guests_.erase(it);
        ++stats_.completed;
        obs::tracer().complete(from, obs_track_, "glunix.job",
                               g.submitted_at, engine().now());
        for (NodeInfo& ni : info_) {
          if (ni.hosting == note.job) ni.hosting = 0;
        }
        if (g.done) g.done(from);
        schedule_queue_scan();
      });

  heartbeat_tick();
  poll_tick();
  reset_eviction_budgets();
}

void Glunix::reset_eviction_budgets() {
  for (NodeInfo& ni : info_) ni.evictions_in_window = 0;
  engine().schedule_in(params_.eviction_window,
                       [this] { reset_eviction_budgets(); });
}

void Glunix::install_daemon(os::Node& node) {
  os::Node* n = &node;
  rpc_.register_method(
      node.id(), kGluPing,
      [](net::NodeId, proto::Body, proto::RpcLayer::ReplyFn reply) {
        reply(16, {});
      });
  rpc_.register_method(
      node.id(), kGluProbeIdle,
      [this, n](net::NodeId, proto::Body, proto::RpcLayer::ReplyFn reply) {
        reply(16, n->user_idle_for(params_.idle_window));
      });
  rpc_.register_method(
      node.id(), kGluSpawn,
      [this, n](net::NodeId master, proto::Body req,
                proto::RpcLayer::ReplyFn reply) {
        const auto spawn = std::get<SpawnReq>(req);
        // One boxed pid so the entry continuation can reference itself.
        auto pid_box = std::make_shared<os::ProcessId>(os::kNoProcess);
        *pid_box = n->cpu().spawn(
            "glunix-guest", os::SchedClass::kBatch,
            [this, n, master, spawn, pid_box] {
              n->cpu().compute(*pid_box, spawn.work,
                               [this, n, master, spawn, pid_box] {
                                 n->cpu().exit(*pid_box);
                                 rpc_.call(n->id(), master, kGluGuestDone,
                                           32, DoneNote{spawn.job,
                                                        spawn.rank},
                                           [](proto::Body) {});
                               });
            });
        reply(16, SpawnAck{*pid_box});
      });
  rpc_.register_method(
      node.id(), kGluKill,
      [n](net::NodeId, proto::Body req, proto::RpcLayer::ReplyFn reply) {
        n->cpu().kill(std::get<os::ProcessId>(req));
        reply(16, {});
      });
  rpc_.register_method(
      node.id(), kGluSuspend,
      [n](net::NodeId, proto::Body req, proto::RpcLayer::ReplyFn reply) {
        n->cpu().suspend(std::get<os::ProcessId>(req));
        reply(16, {});
      });
  rpc_.register_method(
      node.id(), kGluResume,
      [n](net::NodeId, proto::Body req, proto::RpcLayer::ReplyFn reply) {
        n->cpu().resume(std::get<os::ProcessId>(req));
        reply(16, {});
      });
}

void Glunix::heartbeat_tick() {
  for (std::size_t i = 0; i < info_.size(); ++i) {
    if (i == master_) continue;
    // Dead nodes keep getting pinged: a reboot or hot-swapped replacement
    // rejoins the pool the moment it answers, no cluster restart needed.
    rpc_.call(
        master_node(), info_[i].node->id(), kGluPing, 16, {},
        [this, i](proto::Body) {
          NodeInfo& ni = info_[i];
          ni.missed_beats = 0;
          if (!ni.up) {
            ni.up = true;
            ni.reported_idle = false;
            if (on_up_) on_up_(ni.node->id());
          }
        },
        /*timeout=*/params_.heartbeat_interval,
        [this, i] {
          if (!info_[i].up) return;
          if (++info_[i].missed_beats >= params_.heartbeat_misses) {
            declare_down(i);
          }
        });
  }
  engine().schedule_in(params_.heartbeat_interval,
                       [this] { heartbeat_tick(); });
}

void Glunix::poll_tick() {
  for (std::size_t i = 0; i < info_.size(); ++i) {
    if (!info_[i].up) continue;
    rpc_.call(
        master_node(), info_[i].node->id(), kGluProbeIdle, 16, {},
        [this, i](proto::Body resp) {
          if (!info_[i].up) return;
          info_[i].reported_idle = std::get<bool>(resp);
          if (!info_[i].reported_idle && info_[i].hosting != 0) {
            // Owner is back: the guest must leave, now — and this counts
            // against the machine's disturbance budget.
            ++info_[i].evictions_in_window;
            ++stats_.owner_evictions;
            obs::tracer().instant(info_[i].node->id(), obs_track_,
                                  "owner_eviction");
            displace(i, /*node_crashed=*/false);
          }
        },
        /*timeout=*/params_.poll_interval, [] {});
  }
  engine().schedule_in(params_.poll_interval, [this] {
    poll_tick();
    schedule_queue_scan();
  });
}

void Glunix::declare_down(std::size_t idx) {
  NodeInfo& ni = info_[idx];
  if (!ni.up) return;
  ni.up = false;
  ni.reported_idle = false;
  if (ni.hosting != 0) {
    displace(idx, /*node_crashed=*/true);
  }
  obs::tracer().instant(ni.node->id(), obs_track_, "node_down");
  sim::LogStream(sim::LogLevel::kInfo, engine().now(), "glunix")
      << "node " << ni.node->id() << " declared down ("
      << params_.heartbeat_misses << " missed heartbeats)";
  if (on_down_) on_down_(ni.node->id());
}

std::optional<std::size_t> Glunix::pick_idle_machine() const {
  for (std::size_t i = 0; i < info_.size(); ++i) {
    if (i == master_) continue;  // the control node hosts no guests
    const NodeInfo& ni = info_[i];
    if (ni.up && ni.reported_idle && ni.hosting == 0 &&
        ni.evictions_in_window < params_.max_evictions_per_window) {
      return i;
    }
  }
  return std::nullopt;
}

std::size_t Glunix::idle_node_count() const {
  std::size_t n = 0;
  for (const NodeInfo& ni : info_) {
    if (ni.up && ni.reported_idle) ++n;
  }
  return n;
}

bool Glunix::node_believed_up(net::NodeId id) const {
  for (const NodeInfo& ni : info_) {
    if (ni.node->id() == id) return ni.up;
  }
  return false;
}

JobId Glunix::run_remote(sim::Duration work, std::uint64_t memory_bytes,
                         DoneFn done) {
  const JobId id = next_job_++;
  Guest g;
  g.remaining = work;
  g.checkpointed_remaining = work;
  g.memory_bytes = memory_bytes;
  g.submitted_at = engine().now();
  g.done = std::move(done);
  guests_.emplace(id, std::move(g));
  ++stats_.launched;
  place_guest(id);
  return id;
}

void Glunix::place_guest(JobId id) {
  const auto idx = pick_idle_machine();
  if (!idx) {
    waiting_.push_back(id);
    stats_.waiting_peak = std::max<std::uint64_t>(stats_.waiting_peak,
                                                  waiting_.size());
    return;
  }
  launch_on(id, *idx);
}

void Glunix::launch_on(JobId id, std::size_t idx) {
  Guest& g = guests_.at(id);
  NodeInfo& ni = info_[idx];
  ni.hosting = id;
  g.where = ni.node->id();
  g.in_transit = true;
  // First placement ships nothing; migrations/restarts stream the image.
  const sim::Duration transfer =
      g.has_state ? cost_.restore_time(g.memory_bytes) : 0;
  engine().schedule_in(transfer, [this, id, idx] {
    const auto it = guests_.find(id);
    if (it == guests_.end()) return;
    Guest& guest = it->second;
    NodeInfo& node_info = info_[idx];
    if (!node_info.up || node_info.hosting != id) return;  // world moved on
    const net::NodeId target = node_info.node->id();
    rpc_.call(master_node(), target, kGluSpawn, 64,
              SpawnReq{id, SIZE_MAX, guest.remaining},
              [this, id, target](proto::Body resp) {
                const auto it2 = guests_.find(id);
                if (it2 == guests_.end()) return;
                Guest& gg = it2->second;
                if (gg.where != target) return;  // evicted mid-spawn
                gg.pid = std::get<SpawnAck>(resp).pid;
                gg.seg_start = engine().now();
                gg.in_transit = false;
                gg.has_state = true;
                arm_checkpoint(id, ++gg.epoch);
              });
  });
}

void Glunix::arm_checkpoint(JobId id, std::uint64_t epoch) {
  engine().schedule_in(params_.checkpoint_interval, [this, id, epoch] {
    const auto it = guests_.find(id);
    if (it == guests_.end()) return;        // completed
    Guest& g = it->second;
    if (g.epoch != epoch || g.in_transit) return;  // moved since armed
    const sim::Duration rem =
        std::max<sim::Duration>(g.remaining - (engine().now() - g.seg_start),
                                0);
    g.checkpointed_remaining = rem;
    arm_checkpoint(id, epoch);
  });
}

void Glunix::evict(JobId id, bool node_crashed) {
  const auto it = guests_.find(id);
  if (it == guests_.end()) return;
  Guest& g = guests_.at(id);

  for (NodeInfo& ni : info_) {
    if (ni.hosting == id) ni.hosting = 0;
  }

  if (node_crashed) {
    // Progress since the last checkpoint is gone.
    g.remaining = g.checkpointed_remaining;
    ++stats_.crash_restarts;
    if (g.where != net::kInvalidNode) {
      obs::tracer().instant(g.where, obs_track_, "crash_restart");
    }
  } else {
    if (!g.in_transit) {
      g.remaining -= engine().now() - g.seg_start;
      if (g.remaining < 0) g.remaining = 0;
      g.checkpointed_remaining = g.remaining;  // the freeze IS a checkpoint
      // Kill the frozen process; its image travels with the migration.
      rpc_.call(master_node(), g.where, kGluKill, 32, g.pid,
                [](proto::Body) {});
    }
    ++stats_.migrations;
    if (g.where != net::kInvalidNode) {
      obs::tracer().instant(g.where, obs_track_, "migrate");
    }
  }
  g.where = net::kInvalidNode;
  g.pid = os::kNoProcess;
  g.in_transit = false;
  place_guest(id);
}

void Glunix::schedule_queue_scan() {
  if (!waiting_.empty()) {
    std::vector<JobId> retry;
    retry.swap(waiting_);
    for (const JobId id : retry) {
      if (guests_.contains(id)) place_guest(id);
    }
  }
  if (!waiting_gangs_.empty()) {
    std::vector<JobId> retry;
    retry.swap(waiting_gangs_);
    for (const JobId id : retry) {
      if (gangs_.contains(id)) try_start_gang(id);
    }
  }
  // Displaced ranks of running gangs keep probing for replacements.
  for (auto& [id, gang] : gangs_) {
    if (gang.started) gang_try_replace(id);
  }
}

void Glunix::displace(std::size_t machine, bool node_crashed) {
  const JobId id = info_[machine].hosting;
  if (id == 0) return;
  const auto git = gangs_.find(id);
  if (git != gangs_.end()) {
    info_[machine].hosting = 0;
    Gang& gang = git->second;
    for (std::size_t r = 0; r < gang.ranks.size(); ++r) {
      if (gang.ranks[r].where == machine) {
        gang_displace(id, r, node_crashed);
        return;
      }
    }
    return;
  }
  evict(id, node_crashed);
}

// --- Gang jobs ---------------------------------------------------------

JobId Glunix::run_parallel(std::uint32_t width, sim::Duration work_per_rank,
                           std::uint64_t memory_per_rank,
                           std::function<void()> done) {
  assert(width >= 1);
  const JobId id = next_job_++;
  Gang gang;
  gang.ranks.resize(width);
  for (auto& r : gang.ranks) r.remaining = work_per_rank;
  gang.memory_bytes = memory_per_rank;
  gang.submitted_at = engine().now();
  gang.done = std::move(done);
  gangs_.emplace(id, std::move(gang));
  ++stats_.gangs_launched;
  try_start_gang(id);
  return id;
}

void Glunix::try_start_gang(JobId id) {
  Gang& gang = gangs_.at(id);
  assert(!gang.started);
  // All-or-nothing initial placement: holding a partial gang would both
  // waste machines and risk deadlock between queued gangs.
  std::vector<std::size_t> picked;
  for (std::size_t i = 0; i < info_.size(); ++i) {
    if (i == master_) continue;
    const NodeInfo& ni = info_[i];
    if (ni.up && ni.reported_idle && ni.hosting == 0 &&
        ni.evictions_in_window < params_.max_evictions_per_window) {
      picked.push_back(i);
      if (picked.size() == gang.ranks.size()) break;
    }
  }
  if (picked.size() < gang.ranks.size()) {
    waiting_gangs_.push_back(id);
    return;
  }
  gang.started = true;
  for (std::size_t r = 0; r < gang.ranks.size(); ++r) {
    info_[picked[r]].hosting = id;
    gang.ranks[r].where = picked[r];
    gang_rank_spawn(id, r);
  }
}

void Glunix::gang_rank_spawn(JobId id, std::size_t rank) {
  Gang& gang = gangs_.at(id);
  Gang::Rank& r = gang.ranks[rank];
  assert(r.where != SIZE_MAX);
  const net::NodeId target = info_[r.where].node->id();
  rpc_.call(master_node(), target, kGluSpawn, 64,
            SpawnReq{id, rank, r.remaining},
            [this, id, rank, target](proto::Body resp) {
              const auto git = gangs_.find(id);
              if (git == gangs_.end()) return;
              Gang& g = git->second;
              Gang::Rank& rk = g.ranks[rank];
              if (rk.where == SIZE_MAX ||
                  info_[rk.where].node->id() != target) {
                return;  // displaced while the spawn was in flight
              }
              rk.pid = std::get<SpawnAck>(resp).pid;
              rk.seg_start = engine().now();
              rk.running = true;
              if (g.suspended_count > 0) {
                // The gang is paused for someone's migration: freeze this
                // rank too until the resume.
                gang_account(g);
                rk.running = false;
                rpc_.call(master_node(), target, kGluSuspend, 32, rk.pid,
                          [](proto::Body) {});
              }
            });
}

void Glunix::gang_account(Gang& g) {
  const sim::SimTime now = engine().now();
  for (auto& r : g.ranks) {
    if (!r.running || r.done) continue;
    r.remaining = std::max<sim::Duration>(r.remaining - (now - r.seg_start),
                                          0);
    r.seg_start = now;
  }
}

void Glunix::gang_pause(JobId id) {
  Gang& gang = gangs_.at(id);
  if (gang.suspended_count++ > 0) return;  // already paused
  ++stats_.gang_pauses;
  obs::tracer().instant(master_node(), obs_track_, "gang_pause");
  gang_account(gang);
  for (auto& r : gang.ranks) {
    if (r.done || !r.running || r.where == SIZE_MAX ||
        r.pid == os::kNoProcess) {
      continue;
    }
    r.running = false;
    rpc_.call(master_node(), info_[r.where].node->id(), kGluSuspend, 32,
              r.pid, [](proto::Body) {});
  }
}

void Glunix::gang_resume(JobId id) {
  const auto git = gangs_.find(id);
  if (git == gangs_.end()) return;
  Gang& gang = git->second;
  assert(gang.suspended_count > 0);
  if (--gang.suspended_count > 0) return;  // other migrations in flight
  for (auto& r : gang.ranks) {
    if (r.done || r.where == SIZE_MAX || r.pid == os::kNoProcess) continue;
    r.running = true;
    r.seg_start = engine().now();
    rpc_.call(master_node(), info_[r.where].node->id(), kGluResume, 32,
              r.pid, [](proto::Body) {});
  }
}

void Glunix::gang_displace(JobId id, std::size_t rank, bool crashed) {
  Gang& gang = gangs_.at(id);
  Gang::Rank& r = gang.ranks[rank];
  gang_pause(id);  // also retires elapsed work on every rank
  if (!crashed && r.pid != os::kNoProcess && r.where != SIZE_MAX) {
    rpc_.call(master_node(), info_[r.where].node->id(), kGluKill, 32,
              r.pid, [](proto::Body) {});
    ++stats_.migrations;
    obs::tracer().instant(info_[r.where].node->id(), obs_track_, "migrate");
  } else if (crashed) {
    ++stats_.crash_restarts;
    if (r.where != SIZE_MAX) {
      obs::tracer().instant(info_[r.where].node->id(), obs_track_,
                            "crash_restart");
    }
  }
  r.where = SIZE_MAX;
  r.pid = os::kNoProcess;
  r.running = false;
  gang_try_replace(id);
}

void Glunix::gang_try_replace(JobId id) {
  Gang& gang = gangs_.at(id);
  if (!gang.started) return;
  for (std::size_t rank = 0; rank < gang.ranks.size(); ++rank) {
    Gang::Rank& r = gang.ranks[rank];
    if (r.done || r.where != SIZE_MAX) continue;
    const auto idx = pick_idle_machine();
    if (!idx) return;  // paused until the next scan finds a machine
    info_[*idx].hosting = id;
    r.where = *idx;
    r.pid = os::kNoProcess;
    // Ship the frozen rank image, then respawn and lift the gang pause.
    engine().schedule_in(
        cost_.migrate_time(gang.memory_bytes), [this, id, rank] {
          const auto git = gangs_.find(id);
          if (git == gangs_.end()) return;
          Gang::Rank& rk = git->second.ranks[rank];
          if (rk.where == SIZE_MAX) {
            // Displaced again mid-transfer: the re-displacement owns a
            // fresh pause and will schedule its own transfer; release
            // this one's.
            gang_resume(id);
            return;
          }
          gang_rank_spawn(id, rank);
          gang_resume(id);
        });
  }
}

}  // namespace now::glunix
