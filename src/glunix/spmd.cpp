#include "glunix/spmd.hpp"

#include <cassert>

namespace now::glunix {

const char* pattern_name(CommPattern p) {
  switch (p) {
    case CommPattern::kComputeOnly: return "compute-only";
    case CommPattern::kRandomSmall: return "random-small";
    case CommPattern::kColumn: return "column";
    case CommPattern::kEm3d: return "em3d";
    case CommPattern::kConnect: return "connect";
  }
  return "?";
}

SpmdApp::SpmdApp(proto::AmLayer& am, std::vector<os::Node*> nodes,
                 SpmdParams params, DoneFn done)
    : am_(am), params_(params), done_(std::move(done)) {
  assert(nodes.size() >= 2 || params.pattern == CommPattern::kComputeOnly);
  ranks_.resize(nodes.size());
  for (std::size_t r = 0; r < nodes.size(); ++r) {
    Rank& rank = ranks_[r];
    rank.node = nodes[r];
    rank.rng = std::make_unique<sim::Pcg32>(params_.seed + r,
                                            /*stream=*/0x73706d64);
    rank.ep = am_.create_endpoint(*nodes[r], proto::AmLayer::Mode::kPolling);

    am_.register_handler(rank.ep, kMsg, [this, r](const proto::AmMessage&) {
      ++ranks_[r].msgs_received;
    });
    am_.register_handler(rank.ep, kReq,
                         [this, r](const proto::AmMessage& m) {
                           // Serve the remote data request immediately (we
                           // are polling, so we are on the CPU right now).
                           am_.send(ranks_[r].ep, m.src_ep, kRep,
                                    params_.msg_bytes, {});
                         });
    am_.register_handler(rank.ep, kRep, [this, r](const proto::AmMessage&) {
      ranks_[r].reply_pending = false;
    });
    am_.register_handler(rank.ep, kBarArrive,
                         [this, r](const proto::AmMessage& m) {
                           assert(r == 0);
                           (void)r;
                           const auto gen =
                               std::get<std::uint32_t>(m.payload);
                           ++barrier_arrivals_[gen];
                         });
    am_.register_handler(rank.ep, kBarRelease,
                         [this, r](const proto::AmMessage& m) {
                           const auto gen =
                               std::get<std::uint32_t>(m.payload);
                           Rank& rk = ranks_[r];
                           if (gen > rk.released_gen) rk.released_gen = gen;
                         });
  }
}

void SpmdApp::start() {
  assert(!started_ && "start() is one-shot");
  started_ = true;
  started_at_ = am_.engine().now();
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    Rank& rank = ranks_[r];
    rank.pid = rank.node->cpu().spawn(
        std::string(pattern_name(params_.pattern)) + "/" +
            std::to_string(r),
        os::SchedClass::kBatch, [this, r] { run_iteration(r); });
    am_.set_owner(rank.ep, rank.pid);
  }
}

Coscheduler::Gang SpmdApp::gang() const {
  Coscheduler::Gang g;
  for (const Rank& r : ranks_) {
    g.push_back(Coscheduler::Member{&r.node->cpu(), r.pid});
  }
  return g;
}

std::size_t SpmdApp::random_peer(std::size_t r) {
  const auto n = static_cast<std::uint32_t>(ranks_.size());
  std::uint32_t peer = ranks_[r].rng->next_below(n);
  if (peer == r) peer = (peer + 1) % n;
  return peer;
}

void SpmdApp::run_iteration(std::size_t r) {
  Rank& rank = ranks_[r];
  if (rank.iter == params_.iterations) {
    // Final barrier so the wall-clock time covers every rank.
    barrier(r, [this, r] { finish_rank(r); });
    return;
  }
  rank.node->cpu().compute(rank.pid, params_.compute_per_iteration,
                           [this, r] {
                             communicate(r, [this, r] {
                               ++ranks_[r].iter;
                               run_iteration(r);
                             });
                           });
}

void SpmdApp::communicate(std::size_t r, std::function<void()> then) {
  Rank& rank = ranks_[r];
  const std::size_t n = ranks_.size();
  switch (params_.pattern) {
    case CommPattern::kComputeOnly:
      then();
      return;

    case CommPattern::kRandomSmall:
      // Fire-and-forget spray; flow control is the only brake.
      send_chain(r, params_.burst,
                 [this, r] { return random_peer(r); }, std::move(then));
      return;

    case CommPattern::kColumn: {
      // Fixed column partner: rank r streams its bursts at (r+1) mod n,
      // iteration after iteration.  The sustained one-to-one concentration
      // is what overflows the destination's buffering when the receiver is
      // descheduled.
      const std::size_t target = (r + 1) % n;
      send_chain(r, params_.burst, [target] { return target; },
                 std::move(then));
      return;
    }

    case CommPattern::kEm3d: {
      // Exchange boundaries with both neighbors, wait for ours, barrier.
      const std::size_t left = (r + n - 1) % n;
      const std::size_t right = (r + 1) % n;
      const std::uint64_t expected =
          2ull * static_cast<std::uint64_t>(rank.iter + 1);
      auto after_sends = [this, r, expected,
                          then = std::move(then)]() mutable {
        spin_wait(r,
                  [this, r, expected] {
                    return ranks_[r].msgs_received >= expected;
                  },
                  [this, r, then = std::move(then)]() mutable {
                    barrier(r, std::move(then));
                  });
      };
      am_.send_from_process(
          rank.pid, rank.ep, ranks_[left].ep, kMsg, params_.msg_bytes, {},
          [this, r, right, after_sends = std::move(after_sends)]() mutable {
            Rank& rk = ranks_[r];
            am_.send_from_process(rk.pid, rk.ep, ranks_[right].ep, kMsg,
                                  params_.msg_bytes, {},
                                  std::move(after_sends));
          });
      return;
    }

    case CommPattern::kConnect:
      connect_chain(r, params_.rpcs_per_iteration, std::move(then));
      return;
  }
}

void SpmdApp::send_chain(std::size_t r, std::uint32_t count,
                         std::function<std::size_t()> pick_dst,
                         std::function<void()> then) {
  if (count == 0) {
    then();
    return;
  }
  Rank& rank = ranks_[r];
  const std::size_t dst = pick_dst();
  am_.send_from_process(
      rank.pid, rank.ep, ranks_[dst].ep, kMsg, params_.msg_bytes, {},
      [this, r, count, pick_dst = std::move(pick_dst),
       then = std::move(then)]() mutable {
        send_chain(r, count - 1, std::move(pick_dst), std::move(then));
      });
}

void SpmdApp::connect_chain(std::size_t r, int remaining,
                            std::function<void()> then) {
  if (remaining == 0) {
    then();
    return;
  }
  Rank& rank = ranks_[r];
  rank.reply_pending = true;
  const std::size_t peer = random_peer(r);
  am_.send_from_process(
      rank.pid, rank.ep, ranks_[peer].ep, kReq, 64, {},
      [this, r, remaining, then = std::move(then)]() mutable {
        spin_wait(r, [this, r] { return !ranks_[r].reply_pending; },
                  [this, r, remaining, then = std::move(then)]() mutable {
                    connect_chain(r, remaining - 1, std::move(then));
                  });
      });
}

void SpmdApp::barrier(std::size_t r, std::function<void()> then) {
  Rank& rank = ranks_[r];
  const std::uint32_t gen = ++rank.barrier_gen;
  const auto n = static_cast<std::uint32_t>(ranks_.size());
  if (n == 1) {
    then();
    return;
  }
  if (r != 0) {
    am_.send_from_process(
        rank.pid, rank.ep, ranks_[0].ep, kBarArrive, 32, gen,
        [this, r, gen, then = std::move(then)]() mutable {
          spin_wait(r,
                    [this, r, gen] {
                      return ranks_[r].released_gen >= gen;
                    },
                    std::move(then));
        });
    return;
  }
  // Rank 0: wait for everyone, then broadcast the release.
  spin_wait(r,
            [this, gen, n] {
              const auto it = barrier_arrivals_.find(gen);
              return it != barrier_arrivals_.end() &&
                     it->second == n - 1;
            },
            [this, r, gen, then = std::move(then)]() mutable {
              barrier_arrivals_.erase(gen);
              send_release_chain(r, 1, gen, std::move(then));
            });
}

void SpmdApp::send_release_chain(std::size_t r, std::size_t next,
                                 std::uint32_t gen,
                                 std::function<void()> then) {
  if (next == ranks_.size()) {
    then();
    return;
  }
  Rank& rank = ranks_[r];
  am_.send_from_process(
      rank.pid, rank.ep, ranks_[next].ep, kBarRelease, 32, gen,
      [this, r, next, gen, then = std::move(then)]() mutable {
        send_release_chain(r, next + 1, gen, std::move(then));
      });
}

void SpmdApp::spin_wait(std::size_t r, std::function<bool()> pred,
                        std::function<void()> then) {
  if (pred()) {
    then();
    return;
  }
  Rank& rank = ranks_[r];
  rank.node->cpu().compute(
      rank.pid, params_.spin_slice,
      [this, r, pred = std::move(pred), then = std::move(then)]() mutable {
        spin_wait(r, std::move(pred), std::move(then));
      });
}

void SpmdApp::finish_rank(std::size_t r) {
  Rank& rank = ranks_[r];
  rank.node->cpu().exit(rank.pid);
  if (++finished_ranks_ == ranks_.size()) {
    elapsed_ = am_.engine().now() - started_at_;
    if (done_) done_(elapsed_);
  }
}

}  // namespace now::glunix
