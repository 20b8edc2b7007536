#include "serve/workload.hpp"

#include <cassert>

namespace now::serve {

ServeWorkload::ServeWorkload(sim::Engine& engine, Backends backends,
                             ServeConfig cfg)
    : engine_(engine),
      b_(backends),
      files_(b_.xfs != nullptr
                 ? static_cast<xfs::FileService*>(b_.xfs)
                 : b_.central),
      cfg_(std::move(cfg)),
      pop_(cfg_.population, cfg_.seed),
      mix_(cfg_.classes, cfg_.seed),
      obs_track_(obs::tracer().track("serve")),
      stats_obs_("serve", [this](obs::Sink& s) {
        s.gauge("sessions_active", static_cast<double>(sessions_active()));
      }) {
  assert(!cfg_.client_nodes.empty());
  assert((b_.xfs == nullptr || b_.central == nullptr) &&
         "at most one file backend");
  for (std::size_t i = 0; i < mix_.size(); ++i) {
    slo_.add_class(mix_.at(i).name, mix_.at(i).slo);
  }
  mix_.ensure_clients(pop_.clients());
  if (cfg_.replay.enabled()) {
    assert(files_ != nullptr &&
           "replayed arrivals issue file ops and need a file backend");
    bool have_read = false, have_write = false;
    for (std::size_t i = 0; i < mix_.size(); ++i) {
      if (!have_read && mix_.at(i).op == RequestOp::kFileRead) {
        replay_read_cls_ = i;
        have_read = true;
      }
      if (!have_write && mix_.at(i).op == RequestOp::kFileWrite) {
        replay_write_cls_ = i;
        have_write = true;
      }
    }
    assert(have_read && have_write &&
           "replayed arrivals need a kFileRead and a kFileWrite class "
           "to report against");
    (void)have_read;
    (void)have_write;
  }
}

void ServeWorkload::start() {
  assert(!started_ && "start() is one-shot");
  started_ = true;
  // Open clients: one lazy arrival chain each — the engine holds at most
  // one pending arrival per client, and the stream behind it is O(1)
  // state, so queue depth and memory stay O(clients) at any horizon.
  open_streams_.reserve(pop_.open_clients());
  for (std::uint32_t c = 0; c < pop_.open_clients(); ++c) {
    open_streams_.push_back(pop_.stream(c));
  }
  for (std::uint32_t c = 0; c < pop_.open_clients(); ++c) arm_open(c);
  // Closed loop: the first request fires after one think time, which
  // also staggers the closed clients' start instants.
  closed_sessions_.reserve(pop_.clients() - pop_.open_clients());
  for (std::uint32_t c = pop_.open_clients(); c < pop_.clients(); ++c) {
    ClosedSession cs{pop_.sessions(c), std::nullopt};
    cs.window = cs.timeline.next();
    closed_sessions_.push_back(std::move(cs));
    schedule_closed(c);
  }
  // Replayed arrivals: each replay client opens its own cursor over the
  // trace file (stride-filtered to its residue) and runs the same lazy
  // one-pending-event chain as the open clients.
  if (cfg_.replay.enabled()) {
    replay_cursors_.reserve(cfg_.replay.clients);
    for (std::uint32_t r = 0; r < cfg_.replay.clients; ++r) {
      replay_cursors_.push_back(std::make_unique<replay::ClientStrideCursor>(
          replay::open_trace(cfg_.replay.path), cfg_.replay.clients, r));
    }
    for (std::uint32_t r = 0; r < cfg_.replay.clients; ++r) arm_replay(r);
  }
  // No churn: the whole population is logged in for the whole run.
  if (!pop_.params().sessions.enabled()) return;
  presence_.reserve(pop_.clients());
  for (std::uint32_t c = 0; c < pop_.clients(); ++c) {
    presence_.push_back(pop_.sessions(c));
  }
  for (std::uint32_t c = 0; c < pop_.clients(); ++c) {
    arm_presence(c, presence_[c].next());
  }
}

void ServeWorkload::arm_open(std::uint32_t client) {
  if (auto t = open_streams_[client].next()) {
    engine_.schedule_at(*t, [this, client] {
      issue(client, /*closed=*/false);
      arm_open(client);
    });
  }
}

void ServeWorkload::arm_replay(std::uint32_t replay_client) {
  const auto rec = replay_cursors_[replay_client]->next();
  if (!rec) return;
  const std::uint32_t client = pop_.clients() + replay_client;
  sim::SimTime at =
      cfg_.replay.time_scale == 1.0
          ? rec->at
          : static_cast<sim::SimTime>(static_cast<double>(rec->at) /
                                      cfg_.replay.time_scale);
  // Timestamps are monotonic per cursor: once past the horizon the rest
  // of this client's trace is too, so the chain just ends.
  if (at >= pop_.params().horizon) return;
  if (at < engine_.now()) at = engine_.now();
  engine_.schedule_at(
      at, [this, replay_client, client, block = rec->block,
           is_write = rec->is_write] {
        issue_replayed(client, block, is_write);
        arm_replay(replay_client);
      });
}

void ServeWorkload::arm_presence(std::uint32_t client,
                                 std::optional<Session> window) {
  if (!window) return;
  engine_.schedule_at(
      window->login, [this, client, logout = window->logout] {
        ++sessions_;
        engine_.schedule_at(logout, [this, client] {
          --sessions_;
          arm_presence(client, presence_[client].next());
        });
      });
}

void ServeWorkload::issue(std::uint32_t client, bool closed) {
  ++counts_.arrivals;
  if (closed) {
    ++counts_.closed_arrivals;
  } else {
    ++counts_.open_arrivals;
  }
  const std::size_t cls = mix_.pick_class(client);
  const RequestClass& rc = mix_.at(cls);
  const sim::SimTime t0 = engine_.now();

  switch (rc.op) {
    case RequestOp::kFileRead:
    case RequestOp::kFileWrite:
      issue_file(client, cls, mix_.pick_block(cls, client),
                 rc.op == RequestOp::kFileWrite, t0, closed);
      break;
    case RequestOp::kCacheRead: {
      assert(b_.coop != nullptr &&
             "cache request class needs a coopcache backend");
      const std::uint64_t block = mix_.pick_block(cls, client);
      // CoopCacheSim resolves the access instantly; recover which level
      // served it from the counter deltas and charge the study's cost for
      // that level as simulated latency.
      const auto before = b_.coop->results();
      b_.coop->access(client % b_.coop->config().clients, block,
                      /*is_write=*/false);
      const auto& after = b_.coop->results();
      sim::Duration cost = b_.coop_costs.server_disk;
      if (after.local_hits > before.local_hits) {
        cost = b_.coop_costs.local_hit;
      } else if (after.remote_client_hits > before.remote_client_hits) {
        cost = b_.coop_costs.remote_client;
      } else if (after.server_mem_hits > before.server_mem_hits) {
        cost = b_.coop_costs.server_mem;
      }
      engine_.schedule_in(cost, [this, client, cls, t0, closed] {
        finish(client, cls, t0, /*ok=*/true, closed);
      });
      break;
    }
    case RequestOp::kCompute: {
      assert(b_.glunix != nullptr &&
             "compute request class needs a glunix backend");
      b_.glunix->run_remote(rc.compute_work, rc.compute_memory_bytes,
                            [this, client, cls, t0, closed](net::NodeId) {
                              finish(client, cls, t0, /*ok=*/true, closed);
                            });
      break;
    }
  }
}

void ServeWorkload::issue_replayed(std::uint32_t client, std::uint64_t block,
                                   bool is_write) {
  // Replay bypasses mix_.pick_class/pick_block entirely — the trace fixes
  // both choices — so the population clients' RNG draw order is untouched
  // and synthetic results are identical with or without a replay source.
  ++counts_.arrivals;
  ++counts_.replayed_arrivals;
  const std::size_t cls = is_write ? replay_write_cls_ : replay_read_cls_;
  issue_file(client, cls, block % mix_.at(cls).working_set, is_write,
             engine_.now(), /*closed=*/false);
}

void ServeWorkload::issue_file(std::uint32_t client, std::size_t cls,
                               xfs::BlockId block, bool is_write,
                               sim::SimTime t0, bool closed) {
  assert(files_ != nullptr &&
         "file request class needs an xfs or central backend");
  xfs::FileService::OpDone done = [this, client, cls, t0, closed](bool ok) {
    finish(client, cls, t0, ok, closed);
  };
  if (is_write) {
    files_->write(node_of(client), block, std::move(done));
  } else {
    files_->read(node_of(client), block, std::move(done));
  }
}

void ServeWorkload::finish(std::uint32_t client, std::size_t cls,
                           sim::SimTime t0, bool ok, bool closed) {
  ++counts_.completed;
  const sim::SimTime now = engine_.now();
  slo_.record(cls, now - t0, ok);
  obs::tracer().complete(node_of(client), obs_track_, mix_.at(cls).name,
                         t0, now);
  if (closed) schedule_closed(client);
}

void ServeWorkload::schedule_closed(std::uint32_t client) {
  if (engine_.now() >= pop_.params().horizon) return;
  engine_.schedule_in(pop_.think_time(client), [this, client] {
    issue_closed_in_session(client);
  });
}

void ServeWorkload::issue_closed_in_session(std::uint32_t client) {
  const sim::SimTime now = engine_.now();
  if (now >= pop_.params().horizon) return;
  ClosedSession& cs = closed_sessions_.at(client - pop_.open_clients());
  while (cs.window && cs.window->logout <= now) {
    cs.window = cs.timeline.next();
  }
  if (!cs.window) return;  // logged out for the rest of the run
  if (now < cs.window->login) {
    // Logged out right now: the loop parks until the next login instead
    // of burning think-time draws while nobody is at the keyboard.
    engine_.schedule_at(cs.window->login,
                    [this, client] { issue_closed_in_session(client); });
    return;
  }
  issue(client, /*closed=*/true);
}

ServeTotals ServeWorkload::totals() const {
  ServeTotals t = counts_;
  t.offered_per_sec = pop_.params().horizon > 0
                          ? static_cast<double>(t.arrivals) /
                                sim::to_sec(pop_.params().horizon)
                          : 0.0;
  return t;
}

std::uint64_t ServeWorkload::in_flight() const {
  return counts_.arrivals - counts_.completed;
}

std::uint64_t ServeWorkload::sessions_active() const {
  if (!pop_.params().sessions.enabled()) return pop_.clients();
  return sessions_;
}

}  // namespace now::serve
