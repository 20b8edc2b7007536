// Unit tests for the discrete-event engine, RNG, statistics, and the
// open-addressing FlatMap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/flat_map.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace now::sim {
namespace {

using namespace now::sim::literals;

TEST(Engine, StartsAtTimeZero) {
  Engine eng;
  EXPECT_EQ(eng.now(), 0);
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(Engine, DispatchesInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(30, [&] { order.push_back(3); });
  eng.schedule_at(10, [&] { order.push_back(1); });
  eng.schedule_at(20, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30);
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(5, [&] { order.push_back(1); });
  eng.schedule_at(5, [&] { order.push_back(2); });
  eng.schedule_at(5, [&] { order.push_back(3); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, TiesBreakByPriorityBeforeInsertion) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(5, [&] { order.push_back(1); }, /*priority=*/1);
  eng.schedule_at(5, [&] { order.push_back(2); }, /*priority=*/0);
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine eng;
  int fired = 0;
  eng.schedule_in(10, [&] {
    eng.schedule_in(10, [&] { ++fired; });
  });
  eng.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 20);
}

TEST(Engine, CancelPreventsDispatch) {
  Engine eng;
  int fired = 0;
  const EventId id = eng.schedule_in(10, [&] { ++fired; });
  EXPECT_TRUE(eng.cancel(id));
  EXPECT_FALSE(eng.cancel(id));  // double-cancel is a no-op
  eng.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(10, [&] { ++fired; });
  eng.schedule_at(20, [&] { ++fired; });
  eng.schedule_at(30, [&] { ++fired; });
  eng.run_until(20);
  EXPECT_EQ(fired, 2);  // events at exactly the deadline run
  EXPECT_EQ(eng.now(), 20);
  eng.run();
  EXPECT_EQ(fired, 3);
}

TEST(Engine, RunUntilAdvancesClockToDeadlineWhenIdle) {
  Engine eng;
  eng.run_until(5 * kSecond);
  EXPECT_EQ(eng.now(), 5 * kSecond);
}

TEST(Engine, StopHaltsRun) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(10, [&] {
    ++fired;
    eng.stop();
  });
  eng.schedule_at(20, [&] { ++fired; });
  eng.run();
  EXPECT_EQ(fired, 1);
  eng.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, PastEventsClampToNow) {
  Engine eng;
  eng.schedule_at(100, [] {});
  eng.run();
  SimTime fired_at = -1;
  eng.schedule_at(50, [&] { fired_at = eng.now(); });  // in the past
  eng.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(Engine, CancelFromWithinAHandler) {
  Engine eng;
  int fired = 0;
  EventId later = 0;
  eng.schedule_at(10, [&] {
    // Cancel an event that is already in the queue for the same instant
    // and one in the future.
    eng.cancel(later);
  });
  later = eng.schedule_at(20, [&] { ++fired; });
  eng.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, HandlerSchedulingAtCurrentInstantRunsThisPass) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(10, [&] {
    order.push_back(1);
    eng.schedule_at(10, [&] { order.push_back(2); });  // same instant
  });
  eng.schedule_at(11, [&] { order.push_back(3); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, DispatchedCounts) {
  Engine eng;
  for (int i = 0; i < 7; ++i) eng.schedule_at(i, [] {});
  eng.run();
  EXPECT_EQ(eng.dispatched(), 7u);
}

TEST(Engine, StaleCancelAfterSlotReuseIsNoOp) {
  Engine eng;
  int fired = 0;
  // Cancel releases the pool slot; the next schedule reuses it under a fresh
  // generation.  The stale id must not be able to kill the new occupant.
  const EventId stale = eng.schedule_at(10, [&] { fired += 100; });
  EXPECT_TRUE(eng.cancel(stale));
  const EventId fresh = eng.schedule_at(10, [&] { ++fired; });
  EXPECT_FALSE(eng.cancel(stale));  // generation mismatch: no-op
  eng.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(eng.cancel(fresh));  // already fired
}

TEST(Engine, StaleIdStaysStaleAcrossManyReuses) {
  Engine eng;
  const EventId stale = eng.schedule_at(1, [] {});
  eng.cancel(stale);
  int fired = 0;
  for (int i = 0; i < 1'000; ++i) {
    eng.schedule_at(i, [&] { ++fired; });
    EXPECT_FALSE(eng.cancel(stale));
  }
  eng.run();
  EXPECT_EQ(fired, 1'000);
}

TEST(Engine, TieBreakOrderIsDeterministicAcrossRuns) {
  // Two independent engines fed the same scrambled same-time schedule must
  // dispatch in the identical order (time, then priority, then insertion).
  const auto record = [] {
    Engine eng;
    std::vector<int> order;
    for (int i = 0; i < 64; ++i) {
      const SimTime t = (i * 7) % 3;          // times 0..2, scrambled
      const int prio = (i * 5) % 4 - 2;       // priorities -2..1, scrambled
      eng.schedule_at(t, [&order, i] { order.push_back(i); }, prio);
    }
    eng.run();
    return order;
  };
  const std::vector<int> first = record();
  const std::vector<int> second = record();
  ASSERT_EQ(first.size(), 64u);
  EXPECT_EQ(first, second);
}

TEST(Engine, MillionEventStress) {
  constexpr int kSeeds = 1'000;
  constexpr int kChainLength = 1'000;  // 1M dispatches total
  Engine eng;
  std::uint64_t fired = 0;
  // kSeeds self-rescheduling chains with interleaved deadlines, plus a
  // cancelled twin per seed to exercise slot reuse under load.
  std::function<void(int, int)> hop = [&](int chain, int depth) {
    ++fired;
    if (depth < kChainLength) {
      eng.schedule_at(eng.now() + kSeeds, [&hop, chain, depth] {
        hop(chain, depth + 1);
      });
    }
  };
  for (int c = 0; c < kSeeds; ++c) {
    eng.schedule_at(c, [&hop, c] { hop(c, 1); });
    eng.cancel(eng.schedule_at(c, [] {}));
  }
  eng.run();
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kSeeds) * kChainLength);
  EXPECT_EQ(eng.dispatched(), fired);
  // Chain c hops at times c, c + kSeeds, ..., c + (kChainLength-1)*kSeeds;
  // the last event overall is chain kSeeds-1 at depth kChainLength.
  EXPECT_EQ(eng.now(), (kSeeds - 1) + static_cast<SimTime>(kSeeds) *
                                          (kChainLength - 1));
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(Engine, RescheduleMovesPendingEvent) {
  Engine eng;
  SimTime fired_at = -1;
  EventId id = eng.schedule_at(10, [&] { fired_at = eng.now(); });
  id = eng.reschedule(id, 50);
  ASSERT_NE(id, 0u);
  eng.run();
  EXPECT_EQ(fired_at, 50);
  EXPECT_EQ(eng.now(), 50);
}

TEST(Engine, RescheduleInvalidatesOldId) {
  Engine eng;
  int fired = 0;
  const EventId old_id = eng.schedule_at(10, [&] { ++fired; });
  const EventId new_id = eng.reschedule(old_id, 20);
  ASSERT_NE(new_id, 0u);
  EXPECT_FALSE(eng.cancel(old_id));  // superseded
  EXPECT_TRUE(eng.cancel(new_id));
  eng.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, RescheduleOfFiredOrCancelledEventFails) {
  Engine eng;
  const EventId fired_id = eng.schedule_at(1, [] {});
  eng.run();
  EXPECT_EQ(eng.reschedule(fired_id, 10), 0u);
  const EventId cancelled = eng.schedule_at(5, [] {});
  eng.cancel(cancelled);
  EXPECT_EQ(eng.reschedule_in(cancelled, 10), 0u);
}

TEST(Engine, RescheduleCanPullAnEventEarlier) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(20, [&] { order.push_back(1); });
  EventId id = eng.schedule_at(30, [&] { order.push_back(2); });
  eng.schedule_at(5, [&, id] { eng.reschedule(id, 10); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(eng.now(), 20);
}

TEST(Engine, RunUntilLeavesClockAtLastEventWhenStopped) {
  Engine eng;
  eng.schedule_at(10, [&] { eng.stop(); });
  eng.schedule_at(20, [] {});
  const std::uint64_t n = eng.run_until(100);
  EXPECT_EQ(n, 1u);
  // A stopped run must not jump the clock forward to the deadline.
  EXPECT_EQ(eng.now(), 10);
  eng.run_until(100);
  EXPECT_EQ(eng.now(), 100);
}

TEST(Engine, ZeroIdIsANoOpSentinel) {
  Engine eng;
  int fired = 0;
  eng.schedule_at(1, [&] { ++fired; });
  eng.run();  // slot 0's event fires; the slot goes back on the free list
  EXPECT_FALSE(eng.cancel(0));
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_EQ(eng.reschedule(0, 10), 0u);
  EXPECT_EQ(eng.reschedule_in(0, 10), 0u);
  EXPECT_EQ(eng.pending(), 0u);
  // Slot 0 is on the free list once, so two new events get two slots.
  const EventId a = eng.schedule_at(5, [&] { ++fired; });
  const EventId b = eng.schedule_at(6, [&] { ++fired; });
  EXPECT_NE(a, b);
  EXPECT_EQ(eng.pending(), 2u);
  eng.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(eng.pending(), 0u);
}

}  // namespace

// The queue's window, read by the tests below.
struct EngineTestPeer {
  static SimTime last(const Engine& e) { return e.last_; }
  static SimTime bound(const Engine& e) { return e.bound_; }
  static int window_bits(const Engine& e) { return e.window_bits_; }
  static std::size_t queued(const Engine& e) { return e.queued_entries(); }
};

namespace {

// Differential test: a seeded random mix of schedules, cancels (single and
// in bursts that force compaction), reschedules (earlier and later),
// run_until() slices, step()s and peeks is replayed against a std::set
// ordered by (time, priority, seq).  Every dispatch must be the reference
// minimum, and now() and pending() must agree after every call.  Three
// delay mixes:
//   * kWide: log-uniform from 0 ns to 10 simulated hours;
//   * kServe: the delays measured on a serving run (16 % at 0 ns, 16 % at
//     ~1 us, 24 % at ~8 us, 25 % at ~32 us, 13 % at 130-260 us) with a few
//     dozen events pending, and 100 ms and 500 ms timers armed by handlers
//     that the next handler almost always cancels — sparse traffic, which
//     widens the engine's window;
//   * kDense: hundreds of pending events within a few microseconds, which
//     narrows it again.
// The serve and dense mixes also aim operations at the window's edge:
// events at bound_ and bound_ + 1, run_until() deadlines inside the window,
// reschedules across the bound, and compactions while bound_ > last_.
class EngineOracle {
 public:
  enum class Mix { kWide, kServe, kDense };

  explicit EngineOracle(std::uint64_t seed, Mix mix = Mix::kWide)
      : mix_(mix), rng_(seed) {}

  // Performs about `ops` engine calls, counting the ones handlers make.
  void run(std::uint64_t ops) {
    const std::size_t target = mix_ == Mix::kServe   ? 40
                               : mix_ == Mix::kDense ? 400
                                                     : 0;
    while (calls_ < ops && !failed_) {
      observe_window();
      // The serve and dense mixes keep their pending population topped up.
      if (live_.size() < target) {
        schedule();
        check_counts();
        continue;
      }
      // Phases of 50k calls alternate between using run_until() slices and
      // step() alone, so long runs of bucket refills get exercised too.
      const bool slicing = (calls_ / 50'000) % 2 == 0;
      const std::uint32_t span = slicing ? 100 : 90;
      const std::uint32_t r =
          rng_.next_below(mix_ == Mix::kWide ? span : span + 12);
      if (r >= span) {
        window_edge(r - span);
      } else if (r < 40) {
        schedule();
      } else if (r < 50) {
        cancel();
      } else if (r < 60) {
        reschedule();
      } else if (r < 90) {
        step();
      } else if (r < 95) {
        run_until();
      } else if (r < 98) {
        insert_behind_deadline();
      } else {
        cancel_burst();
      }
      check_counts();
    }
    // Drain what is left so every pending event is checked too.
    ++calls_;
    eng_.run();
    check_counts();
    EXPECT_EQ(ref_.size(), 0u);
  }

  std::uint64_t dispatches() const { return dispatches_; }
  bool failed() const { return failed_; }
  // Times the window width rose and fell between two calls.
  std::uint64_t window_grew() const { return window_grew_; }
  std::uint64_t window_shrank() const { return window_shrank_; }
  // Widest window seen, in bits.
  int widest_window() const { return widest_window_; }
  // Events scheduled or rescheduled to exactly bound_ or bound_ + 1 while
  // the window was open (bound_ > last_).
  std::uint64_t edge_events() const { return edge_events_; }
  // run_until() deadlines inside an open window.
  std::uint64_t deadlines_in_window() const { return deadlines_in_window_; }
  // Compactions that ran while bound_ > last_.
  std::uint64_t compactions_in_window() const { return compactions_in_window_; }

 private:
  // (time, priority, seq, token): seq is unique, so the token never decides.
  using Key = std::tuple<SimTime, int, std::uint64_t, std::uint64_t>;
  struct Event {
    EventId id;
    Key key;
  };

  std::uint64_t next_u64() {
    return (static_cast<std::uint64_t>(rng_.next_u32()) << 32) |
           rng_.next_u32();
  }

  // 0 ns with small probability, else log-uniform up to ~10 hours.  Half
  // the draws stop at ~1 ms, so near events pile up behind one another in
  // the buckets instead of all landing in front of a far one.
  Duration random_delay() {
    if (mix_ == Mix::kServe) return serve_delay();
    if (mix_ == Mix::kDense) {
      return static_cast<Duration>(rng_.next_below(4'096));
    }
    constexpr Duration kMax = 10 * kHour;
    const std::uint32_t bits =  // 2^46 ns ~ 19.5 h, 2^20 ns ~ 1 ms
        rng_.next_below(rng_.next_below(2) == 0 ? 47 : 21);
    if (bits == 0) return 0;
    const Duration d = static_cast<Duration>(next_u64() >> (64 - bits));
    return d < kMax ? d : kMax;
  }

  Duration serve_delay() {
    const std::uint32_t r = rng_.next_below(100);
    const auto around = [this](Duration lo, Duration hi) {
      return lo + static_cast<Duration>(
                      rng_.next_below(static_cast<std::uint32_t>(hi - lo)));
    };
    if (r < 16) return 0;
    if (r < 32) return around(800, 1'300);
    if (r < 56) return around(6'000, 10'000);
    if (r < 81) return around(24'000, 40'000);
    if (r < 94) return around(130'000, 260'000);
    return around(1, 2'000);
  }

  // Arms a 100 ms or 500 ms timer and cancels the previous one, as an RPC
  // hop arms its call timer and the reply cancels it; one in 64 is left to
  // fire.
  void timer_hop() {
    while (!timers_.empty() && events_.count(timers_.back()) == 0) {
      timers_.pop_back();
    }
    if (!timers_.empty() && rng_.next_below(64) != 0) {
      ++calls_;
      cancel_token(timers_.back());
      timers_.pop_back();
    }
    const std::uint64_t token = next_token_;
    schedule_at(now_ + (rng_.next_below(2) == 0 ? 100 : 500) * kMillisecond,
                random_priority());
    timers_.push_back(token);
  }

  // Records how the window moved since the last call.
  void observe_window() {
    const int w = EngineTestPeer::window_bits(eng_);
    if (w > window_bits_) ++window_grew_;
    if (w < window_bits_) ++window_shrank_;
    window_bits_ = w;
    widest_window_ = std::max(widest_window_, w);
  }

  // An operation aimed at the edge of the window, when it is open (bound_
  // > last_) and not behind the clock.
  void window_edge(std::uint32_t op) {
    const SimTime bound = EngineTestPeer::bound(eng_);
    if (bound <= EngineTestPeer::last(eng_) || bound < now_) return step();
    switch (op / 2) {
      case 0:  // at the bound and one past it, the two sides of the split
        schedule_at(bound, random_priority());
        schedule_at(bound + 1, random_priority());
        edge_events_ += 2;
        break;
      case 1: {  // a deadline inside the window
        ++deadlines_in_window_;
        run_until_at(now_ + static_cast<Duration>(
                                next_u64() %
                                static_cast<std::uint64_t>(bound - now_ + 1)));
        break;
      }
      case 2:  // across the bound: out of the heap, or into it
        if (live_.empty()) return schedule();
        reschedule_to(live_[rng_.next_below(live_.size())],
                      op % 2 == 0 ? bound + 1 : bound);
        ++edge_events_;
        break;
      case 3:  // a cancel burst, which compacts a large queue
        cancel_burst();
        break;
      default:
        step();
        break;
    }
  }

  int random_priority() {
    return static_cast<int>(rng_.next_below(3)) - 1;
  }

  // Registers event `token` at `at` (clamped like the engine) in the
  // reference and records its id.
  void track(std::uint64_t token, EventId id, SimTime at, int prio) {
    if (at < now_) at = now_;
    const Key key{at, prio, ++seq_, token};
    ref_.insert(key);
    events_[token] = Event{id, key};
    live_pos_[token] = live_.size();
    live_.push_back(token);
  }

  void untrack(std::uint64_t token) {
    const std::size_t pos = live_pos_[token];
    live_[pos] = live_.back();
    live_pos_[live_[pos]] = pos;
    live_.pop_back();
    live_pos_.erase(token);
    ref_.erase(events_[token].key);
    if (dead_.size() < 4096) {
      dead_.push_back(events_[token].id);
    } else {
      dead_[rng_.next_below(4096)] = events_[token].id;
    }
    events_.erase(token);
  }

  void schedule_at(SimTime at, int prio) {
    const std::uint64_t token = next_token_++;
    ++calls_;
    const EventId id =
        eng_.schedule_at(at, [this, token] { on_dispatch(token); }, prio);
    track(token, id, at, prio);
  }

  void schedule() { schedule_at(now_ + random_delay(), random_priority()); }

  void cancel() {
    ++calls_;
    if (live_.empty() || rng_.next_below(8) == 0) {
      // A dead id (fired, cancelled or superseded) or 0 must be refused.
      const EventId id =
          dead_.empty() ? 0 : dead_[rng_.next_below(dead_.size())];
      if (eng_.cancel(id)) fail("cancel() accepted a dead id");
      return;
    }
    cancel_token(live_[rng_.next_below(live_.size())]);
  }

  void cancel_token(std::uint64_t token) {
    const bool open =
        EngineTestPeer::bound(eng_) > EngineTestPeer::last(eng_);
    const std::size_t queued = EngineTestPeer::queued(eng_);
    if (!eng_.cancel(events_[token].id)) fail("cancel() refused a live id");
    // A cancel adds a tombstone; only a compaction shrinks the queue.
    if (open && EngineTestPeer::queued(eng_) < queued) ++compactions_in_window_;
    untrack(token);
  }

  void reschedule() {
    if (live_.empty()) return schedule();
    ++calls_;
    const std::uint64_t token = live_[rng_.next_below(live_.size())];
    const SimTime current = std::get<0>(events_[token].key);
    // Half the moves pull the event earlier (possibly to now), half push it
    // later.
    SimTime at;
    if (rng_.next_below(2) == 0) {
      at = now_ + static_cast<Duration>(
                      next_u64() % static_cast<std::uint64_t>(current - now_ + 1));
    } else {
      at = current + random_delay();
    }
    reschedule_to(token, at);
  }

  void reschedule_to(std::uint64_t token, SimTime at) {
    const int prio = random_priority();
    const EventId id = eng_.reschedule(events_[token].id, at, prio);
    if (id == 0) return fail("reschedule() refused a live id");
    untrack(token);
    track(token, id, at, prio);
  }

  void step() {
    ++calls_;
    // A peek refills the heap ahead of the clock, so only some steps peek.
    SimTime next = 0;
    if (rng_.next_below(8) == 0 &&
        (eng_.peek_next(&next) != !ref_.empty() ||
         (!ref_.empty() && next != std::get<0>(*ref_.begin())))) {
      fail("peek_next() disagrees with the reference");
    }
    const std::uint64_t before = dispatches_;
    const bool any = eng_.step();
    if (any != (dispatches_ == before + 1) || (!any && !ref_.empty())) {
      fail("step() disagrees with the reference");
    }
  }

  // Slices are mostly short, so most events reach the heap through bucket
  // refills rather than by being scheduled behind a far deadline.
  void run_until() {
    run_until_at(now_ + (random_delay() >> rng_.next_below(24)));
  }

  void run_until_at(SimTime deadline) {
    ++calls_;
    const std::uint64_t before = dispatches_;
    const std::uint64_t n = eng_.run_until(deadline);
    if (n != dispatches_ - before) fail("run_until() miscounted");
    if (!ref_.empty() && std::get<0>(*ref_.begin()) <= deadline) {
      fail("run_until() left an event due by its deadline");
    }
    now_ = deadline;
    if (eng_.now() != now_) fail("run_until() left the clock off its deadline");
  }

  // Cancels a quarter of the pending events: stale entries then outnumber
  // live ones and the engine compacts its queue.
  void cancel_burst() {
    for (std::size_t n = live_.size() / 4; n > 0 && !failed_; --n) cancel();
  }

  // After run_until() has peeked past its deadline, inserts an event
  // strictly between the new clock and the next pending event.
  void insert_behind_deadline() {
    run_until();
    if (ref_.empty()) return;
    const SimTime next = std::get<0>(*ref_.begin());
    if (next - now_ < 2) return;
    schedule_at(now_ + 1 + static_cast<Duration>(next_u64() % static_cast<
                                                      std::uint64_t>(next - now_ - 1)),
                random_priority());
  }

  void on_dispatch(std::uint64_t token) {
    ++dispatches_;
    auto it = events_.find(token);
    if (it == events_.end()) return fail("dispatched a cancelled event");
    if (std::get<3>(*ref_.begin()) != token) {
      return fail("dispatched out of order");
    }
    now_ = std::get<0>(it->second.key);
    if (eng_.now() != now_) return fail("now() is not the event's time");
    // The fired id is dead from here on, inside the handler too.
    const EventId fired = it->second.id;
    untrack(token);
    if (eng_.cancel(fired)) fail("cancel() of the running event succeeded");
    // Handlers schedule (a quarter at the current instant), cancel and
    // reschedule too.
    const std::uint32_t r = rng_.next_below(16);
    if (r < 4) {
      schedule_at(now_, random_priority());
    } else if (r < 9) {
      schedule();
    } else if (r < 11) {
      cancel();
    } else if (r < 13) {
      reschedule();
    } else if (mix_ == Mix::kServe) {
      timer_hop();
    }
  }

  void check_counts() {
    if (eng_.pending() != ref_.size()) fail("pending() disagrees");
    if (eng_.now() != now_) fail("now() disagrees");
  }

  void fail(const char* what) {
    if (!failed_) ADD_FAILURE() << what << " after " << calls_ << " calls";
    failed_ = true;
    eng_.stop();
  }

  Mix mix_;
  Engine eng_;
  Pcg32 rng_;
  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t next_token_ = 1;
  std::uint64_t calls_ = 0;
  std::uint64_t dispatches_ = 0;
  bool failed_ = false;
  std::set<Key> ref_;
  std::unordered_map<std::uint64_t, Event> events_;
  std::unordered_map<std::uint64_t, std::size_t> live_pos_;
  std::vector<std::uint64_t> live_;
  std::vector<EventId> dead_;
  std::vector<std::uint64_t> timers_;  // serve mix: armed call timers
  int window_bits_ = 0;
  int widest_window_ = 0;
  std::uint64_t window_grew_ = 0;
  std::uint64_t window_shrank_ = 0;
  std::uint64_t edge_events_ = 0;
  std::uint64_t deadlines_in_window_ = 0;
  std::uint64_t compactions_in_window_ = 0;
};

TEST(Engine, MatchesOrderedSetReferenceOnRandomOperations) {
  EngineOracle oracle(/*seed=*/20261017);
  oracle.run(1'000'000);
  EXPECT_FALSE(oracle.failed());
  EXPECT_GT(oracle.dispatches(), 300'000u);

  // Sparse serving traffic opens the window wide; dense traffic closes it.
  EngineOracle serve(/*seed=*/20261020, EngineOracle::Mix::kServe);
  serve.run(600'000);
  EXPECT_FALSE(serve.failed());
  EXPECT_GT(serve.dispatches(), 120'000u);
  EXPECT_GE(serve.widest_window(), 12);
  EngineOracle dense(/*seed=*/20261021, EngineOracle::Mix::kDense);
  dense.run(600'000);
  EXPECT_FALSE(dense.failed());
  EXPECT_GT(dense.dispatches(), 80'000u);
  for (const EngineOracle* o : {&serve, &dense}) {
    EXPECT_GT(o->window_grew(), 100u);
    EXPECT_GT(o->window_shrank(), 100u);
    EXPECT_GT(o->edge_events(), 1'000u);
    EXPECT_GT(o->deadlines_in_window(), 500u);
  }
  EXPECT_GT(serve.compactions_in_window() + dense.compactions_in_window(), 10u);
}

TEST(Time, ConversionRoundTrip) {
  EXPECT_EQ(from_us(1.0), kMicrosecond);
  EXPECT_EQ(from_ms(1.0), kMillisecond);
  EXPECT_EQ(from_sec(1.0), kSecond);
  EXPECT_DOUBLE_EQ(to_us(123 * kMicrosecond), 123.0);
  EXPECT_DOUBLE_EQ(to_ms(250 * kMicrosecond), 0.25);
  EXPECT_DOUBLE_EQ(to_sec(1500 * kMillisecond), 1.5);
}

TEST(Time, FormatPicksUnits) {
  EXPECT_EQ(format_duration(500), "500 ns");
  EXPECT_EQ(format_duration(12 * kMicrosecond + 340), "12.34 us");
  EXPECT_EQ(format_duration(3 * kSecond), "3.00 s");
}

TEST(Pcg32, DeterministicForSeed) {
  Pcg32 a(42, 7), b(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Pcg32, StreamsDiffer) {
  Pcg32 a(42, 1), b(42, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Pcg32, UniformInRange) {
  Pcg32 r(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Pcg32, NextBelowUnbiasedCoverage) {
  Pcg32 r(3);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[r.next_below(10)];
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(Pcg32, ExponentialMeanConverges) {
  Pcg32 r(5);
  Summary s;
  for (int i = 0; i < 20000; ++i) s.add(r.exponential(10.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.5);
}

TEST(Pcg32, ParetoStaysInBounds) {
  Pcg32 r(6);
  for (int i = 0; i < 5000; ++i) {
    const double x = r.pareto(1.2, 1.0, 1000.0);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 1000.0 + 1e-9);
  }
}

TEST(Pcg32, NormalMoments) {
  Pcg32 r(7);
  Summary s;
  for (int i = 0; i < 20000; ++i) s.add(r.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Pcg32, UniformIntInclusiveBounds) {
  Pcg32 r(8);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = r.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Zipf, SkewsTowardLowRanks) {
  Pcg32 r(9);
  ZipfSampler z(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[z.sample(r)];
  EXPECT_GT(counts[0], counts[50] * 5);
  EXPECT_GT(counts[0], counts[10]);
}

TEST(Zipf, ZeroExponentIsUniform) {
  Pcg32 r(10);
  ZipfSampler z(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[z.sample(r)];
  for (int c : counts) {
    EXPECT_GT(c, 1500);
    EXPECT_LT(c, 2500);
  }
}

// The guide table only picks where a lookup starts, so rank_of() must equal
// a binary search over the CDF at every CDF value, at the double just below
// each one, and at 0 — the points where a draw crosses from one rank to the
// next.
TEST(Zipf, GuideTableMatchesBinarySearch) {
  const std::pair<std::uint32_t, double> cases[] = {
      {1, 1.0},    {2, 0.5},     {10, 0.0},      {100, 1.0},
      {1000, 0.8}, {4096, 1.2},  {100'000, 1.0}, {5'000, 3.0}};
  for (const auto& [n, s] : cases) {
    const ZipfSampler z(n, s);
    std::vector<double> cdf(n);
    for (std::uint32_t i = 0; i < n; ++i) cdf[i] = z.cdf(i);
    const auto search = [&](double u) {
      const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
      return it == cdf.end() ? n - 1
                             : static_cast<std::uint32_t>(it - cdf.begin());
    };
    std::uint32_t mismatches = 0;
    const auto check = [&](double u) {
      mismatches += z.rank_of(u) != search(u);
    };
    check(0.0);
    for (const double c : cdf) {
      check(c);
      check(std::nextafter(c, 0.0));
    }
    EXPECT_EQ(mismatches, 0u) << "n=" << n << " s=" << s;
  }
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Summary, MergeMatchesCombined) {
  Summary a, b, all;
  Pcg32 r(11);
  for (int i = 0; i < 500; ++i) {
    const double x = r.normal(0, 1);
    a.add(x);
    all.add(x);
  }
  for (int i = 0; i < 300; ++i) {
    const double x = r.normal(10, 3);
    b.add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(Histogram, PercentilesBracketTrueValues) {
  Histogram h(1.0, 1.05);
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  EXPECT_NEAR(h.percentile(0.5), 500, 500 * 0.06);
  EXPECT_NEAR(h.percentile(0.99), 990, 990 * 0.06);
  EXPECT_EQ(h.count(), 1000u);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.0), 0.0);
  EXPECT_EQ(h.percentile(1.0), 0.0);
}

TEST(Histogram, ExtremeQuantilesBracketMinAndMax) {
  Histogram h(1.0, 1.05);
  for (double x : {2.0, 5.0, 20.0, 80.0, 300.0}) h.add(x);
  // q=0 is the smallest sample's bin upper bound; q=1 the largest's.
  EXPECT_GE(h.percentile(0.0), 2.0);
  EXPECT_LE(h.percentile(0.0), 2.0 * 1.05);
  EXPECT_GE(h.percentile(1.0), 300.0);
  EXPECT_LE(h.percentile(1.0), 300.0 * 1.05);
  // Out-of-range q clamps rather than misbehaving.
  EXPECT_EQ(h.percentile(-0.5), h.percentile(0.0));
  EXPECT_EQ(h.percentile(2.0), h.percentile(1.0));
}

TEST(Histogram, UnderflowBinResolvesToLo) {
  Histogram h(10.0, 1.05);
  for (int i = 0; i < 9; ++i) h.add(0.5);  // all below lo
  h.add(1000.0);
  EXPECT_EQ(h.count(), 10u);
  // 90 % of the mass is in the underflow bin: low quantiles report `lo`.
  EXPECT_EQ(h.percentile(0.0), 10.0);
  EXPECT_EQ(h.percentile(0.5), 10.0);
  EXPECT_GE(h.percentile(1.0), 1000.0);
  // The summary still sees the exact values.
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
}

// merge() is how per-lane latency shards combine at report time: bin
// counts are integers, so any grouping of the same samples must produce
// the identical histogram — the foundation of thread-count-invariant
// statistics.
TEST(Histogram, MergeEqualsSingleHistogramOverTheUnion) {
  Histogram whole(1.0, 1.05);
  Histogram a(1.0, 1.05), b(1.0, 1.05), c(1.0, 1.05);
  Pcg32 rng(99);
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.exponential(1.0 / 250.0) + 0.2;  // some underflow
    whole.add(x);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(x);
  }
  a.merge(b);
  a.merge(c);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(q), whole.percentile(q)) << "q=" << q;
  }
}

TEST(Histogram, MergeEmptyIsIdentity) {
  Histogram a(1.0, 1.05), empty(1.0, 1.05);
  a.add(3.0);
  a.add(70.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.max(), 70.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.percentile(1.0), a.percentile(1.0));
}

TEST(Summary, MergeVarianceIsExact) {
  // Small integer samples so the expected moments are exact by hand:
  // {1,2,3} merged with {10,14} = {1,2,3,10,14}.
  Summary a, b, all;
  for (double x : {1.0, 2.0, 3.0}) { a.add(x); all.add(x); }
  for (double x : {10.0, 14.0}) { b.add(x); all.add(x); }
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_DOUBLE_EQ(a.sum(), 30.0);
  EXPECT_DOUBLE_EQ(a.mean(), 6.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 14.0);
  // Sample variance of {1,2,3,10,14} is 130/4 = 32.5, and the pairwise
  // merge must reproduce it to rounding, not just approximately.
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_NEAR(a.variance(), 32.5, 1e-12);
}

TEST(Summary, MergeWithEmptySides) {
  Summary empty1, empty2;
  empty1.merge(empty2);
  EXPECT_EQ(empty1.count(), 0u);
  EXPECT_EQ(empty1.mean(), 0.0);

  Summary s;
  s.add(3.0);
  s.add(5.0);
  Summary lhs_empty;
  lhs_empty.merge(s);  // empty.merge(nonempty) adopts the other side
  EXPECT_EQ(lhs_empty.count(), 2u);
  EXPECT_DOUBLE_EQ(lhs_empty.mean(), 4.0);

  Summary rhs_empty;
  s.merge(rhs_empty);  // nonempty.merge(empty) is a no-op
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.0);
}

using Map = FlatMap<std::uint32_t>;

/// A map whose table is allocated (16 slots) but empty.
Map empty_table() {
  Map m;
  m.find_or_insert(0);
  m.erase(0);
  return m;
}

/// `m`'s value for `key`, or -1 when the key is missing.
std::int64_t value_of(const Map& m, std::uint64_t key) {
  const std::uint32_t* v = m.find(key);
  return v == nullptr ? std::int64_t{-1} : std::int64_t{*v};
}

/// The first `n` keys whose probe starts at `slot` in `m`'s table.
std::vector<std::uint64_t> keys_homed_at(const Map& m, std::size_t slot,
                                         std::size_t n) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 1; keys.size() < n; ++k) {
    if (m.bucket(k) == slot) keys.push_back(k);
  }
  return keys;
}

TEST(FlatMap, FindAndEraseBeforeFirstInsert) {
  Map m;
  EXPECT_EQ(m.find(0), nullptr);
  EXPECT_EQ(std::as_const(m).find(42), nullptr);
  EXPECT_FALSE(m.erase(42));
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.bucket_count(), 0u);
}

TEST(FlatMap, ProbeChainWrapsPastTheEnd) {
  Map m = empty_table();
  const std::size_t last = m.bucket_count() - 1;
  const auto keys = keys_homed_at(m, last, 3);  // slots last, 0, 1
  for (std::uint32_t i = 0; i < 3; ++i) m.find_or_insert(keys[i], 10 + i);
  ASSERT_EQ(m.bucket_count(), last + 1);  // no growth moved them
  for (std::uint32_t i = 0; i < 3; ++i) EXPECT_EQ(value_of(m, keys[i]), 10 + i);
  // Erasing the chain's head shifts the wrapped entries back across the end.
  EXPECT_TRUE(m.erase(keys[0]));
  EXPECT_EQ(value_of(m, keys[0]), -1);
  EXPECT_EQ(value_of(m, keys[1]), 11);
  EXPECT_EQ(value_of(m, keys[2]), 12);
  EXPECT_TRUE(m.erase(keys[2]));
  EXPECT_EQ(value_of(m, keys[1]), 11);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, EraseFromMiddleOfChainKeepsTheRest) {
  Map m = empty_table();
  // One run of slots 4..9: three keys homed at 4, then one homed at 5, one
  // at 7 and one at 9.  Erasing the second key homed at 4 (slot 5) must
  // pull the next three back one slot each, but leave the key homed at 9.
  std::vector<std::uint64_t> keys = keys_homed_at(m, 4, 3);
  for (const std::size_t slot : {5, 7, 9}) {
    keys.push_back(keys_homed_at(m, slot, 1)[0]);
  }
  for (std::uint32_t i = 0; i < keys.size(); ++i) m.find_or_insert(keys[i], i);
  ASSERT_EQ(m.bucket_count(), 16u);
  EXPECT_TRUE(m.erase(keys[1]));
  EXPECT_FALSE(m.erase(keys[1]));
  EXPECT_EQ(m.size(), keys.size() - 1);
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(value_of(m, keys[i]), i == 1 ? -1 : std::int64_t{i})
        << "key " << i;
  }
}

TEST(FlatMap, GrowthKeepsEveryEntry) {
  Map m;
  for (std::uint32_t k = 0; k < 10'000; ++k) {
    m.find_or_insert(k, 3 * k);
    const std::size_t slots = m.bucket_count();
    ASSERT_EQ(slots & (slots - 1), 0u) << "not a power of two";
    ASSERT_LE(2 * m.size(), slots) << "over half full";
  }
  EXPECT_EQ(m.size(), 10'000u);
  for (std::uint32_t k = 0; k < 10'000; ++k) {
    ASSERT_EQ(value_of(m, k), 3 * k) << k;
  }
  EXPECT_EQ(value_of(m, 10'000), -1);
  EXPECT_EQ(m.find_or_insert(7, 99), 21u);  // present: init ignored
}

TEST(FlatMap, EraseHeavyRandomRunMatchesUnorderedMap) {
  Map m;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  Pcg32 rng(5);
  for (int op = 0; op < 200'000; ++op) {
    // Mostly dense small ids, like block numbers, plus sparse wide ones.
    const std::uint64_t key =
        rng.next_below(4) != 0
            ? rng.next_below(600)
            : (std::uint64_t{rng.next_u32()} << 31) ^ rng.next_u32();
    const std::uint32_t r = rng.next_below(10);
    if (r < 4) {
      const std::uint32_t v = rng.next_u32();
      m.find_or_insert(key) = v;
      ref[key] = v;
    } else if (r < 8) {
      ASSERT_EQ(m.erase(key), ref.erase(key) == 1) << "op " << op;
    } else {
      const auto it = ref.find(key);
      const std::uint32_t* got = m.find(key);
      ASSERT_EQ(got != nullptr, it != ref.end()) << "op " << op;
      if (got != nullptr) {
        ASSERT_EQ(*got, it->second);
      }
    }
    if (op % 1'000 == 0) {
      ASSERT_EQ(m.size(), ref.size());
      std::size_t seen = 0;
      m.for_each([&](std::uint64_t k, std::uint32_t v) {
        ++seen;
        const auto it = ref.find(k);
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(v, it->second);
      });
      ASSERT_EQ(seen, ref.size());
    }
  }
}

// Protocol-layer key shapes: AM endpoint ids across the whole 32-bit range
// (kInvalidEndpoint included; only the all-ones 64-bit key is reserved).
TEST(FlatMap, EndpointIdKeysSpanAll32Bits) {
  Map m;
  const std::vector<std::uint64_t> keys = {0,          1,          0xffff,
                                           0x10000,    0x7fffffff, 0x80000000,
                                           0xfffffffe, 0xffffffff};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    m.find_or_insert(keys[i]) = static_cast<std::uint32_t>(i);
  }
  ASSERT_EQ(m.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(value_of(m, keys[i]), static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(value_of(m, 0x100000000ull), -1);  // a 33-bit neighbour
  EXPECT_TRUE(m.erase(0xffffffff));
  EXPECT_EQ(value_of(m, 0xffffffff), -1);
  EXPECT_EQ(value_of(m, 0xfffffffe), 6);
}

// RPC call ids are `node << 32 | seq`: every node's sequence climbs while
// old calls complete.  Under that churn the table stays exact and sized by
// the live calls, not by how many ever existed.
TEST(FlatMap, CallIdChurnStaysExactAndBounded) {
  Map m;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  constexpr std::uint64_t kNodes = 8;
  constexpr std::uint32_t kLive = 64;  // outstanding calls per node
  std::vector<std::uint32_t> next(kNodes, 1), oldest(kNodes, 1);
  Pcg32 rng(11);
  std::size_t peak_buckets = 0;
  for (int op = 0; op < 200'000; ++op) {
    const std::uint64_t node = rng.next_below(kNodes);
    const auto id = [node](std::uint32_t seq) { return node << 32 | seq; };
    if (next[node] - oldest[node] < kLive && rng.next_below(2) == 0) {
      const std::uint32_t seq = next[node]++;
      m.find_or_insert(id(seq)) = seq;
      ref[id(seq)] = seq;
    } else if (oldest[node] != next[node]) {
      // Completions arrive out of order: retire a random live call, and
      // advance the oldest past calls already gone.
      const std::uint32_t seq =
          oldest[node] + rng.next_below(next[node] - oldest[node]);
      ASSERT_EQ(m.erase(id(seq)), ref.erase(id(seq)) == 1) << "op " << op;
      while (oldest[node] != next[node] && !ref.contains(id(oldest[node]))) {
        ++oldest[node];
      }
    }
    peak_buckets = std::max(peak_buckets, m.bucket_count());
    if (op % 1'000 == 0) {
      ASSERT_EQ(m.size(), ref.size());
      for (const auto& [k, v] : ref) ASSERT_EQ(value_of(m, k), v);
    }
  }
  EXPECT_LE(peak_buckets, 4 * kNodes * kLive);
}

}  // namespace
}  // namespace now::sim
