#include "sim/parallel_engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <limits>

namespace now::sim {

namespace {
constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

// The barrier's spin budget before a waiter parks in atomic::wait.  A few
// pauses cover the other side finishing on another core within a
// microsecond or so.  Yields follow: they hand the core to a lane that
// shares it (an oversubscribed or pinned run), which a long pause spin
// would starve for whole scheduler slices, and they keep an idle lane off
// the futex, whose wake-up costs far more than a short epoch under a
// hypervisor.  4096 yields last on the order of a millisecond.
constexpr unsigned kSpinPauses = 16;
constexpr unsigned kSpinYields = 4096;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Returns the value of `a` once it differs from `old` (acquire), spinning
// for the bounded budget above before parking.  A park is counted in
// `parks` on waking, so the count is published with whatever the waker
// synchronises next (a worker's done-decrement, for instance).
std::uint32_t await_change(const std::atomic<std::uint32_t>& a,
                           std::uint32_t old, std::uint64_t& parks) {
  for (unsigned i = 0; i < kSpinPauses + kSpinYields; ++i) {
    const std::uint32_t v = a.load(std::memory_order_acquire);
    if (v != old) return v;
    if (i < kSpinPauses) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  for (;;) {
    a.wait(old, std::memory_order_acquire);
    const std::uint32_t v = a.load(std::memory_order_acquire);
    if (v != old) {
      ++parks;
      return v;
    }
  }
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

ParallelEngine::ParallelEngine(Engine& global, ParallelConfig cfg)
    : global_(global), cfg_(cfg) {
  assert(cfg_.threads >= 1);
  assert(cfg_.nodes >= 1);
  assert(cfg_.lookahead > 0 && "partitioned execution needs lookahead > 0");
  if (cfg_.threads > cfg_.nodes) cfg_.threads = cfg_.nodes;
  parts_.reserve(cfg_.threads);
  for (unsigned i = 0; i < cfg_.threads; ++i) {
    parts_.push_back(std::make_unique<Engine>());
  }
  mail_.resize(static_cast<std::size_t>(cfg_.threads) * cfg_.threads);
  lane_.resize(cfg_.threads);
  workers_.reserve(cfg_.threads - 1);
  for (unsigned i = 1; i < cfg_.threads; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

ParallelEngine::~ParallelEngine() {
  shutdown_ = true;
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ParallelEngine::post(std::uint32_t src_node, std::uint32_t dst_node,
                          SimTime order_time, InlinedCallback fn) {
  Mailbox& box =
      mail_[static_cast<std::size_t>(lane_of(src_node)) * parts_.size() +
            lane_of(dst_node)];
  Msg m;
  m.time = order_time;
  m.src_node = src_node;
  m.dst_node = dst_node;
  m.seq = box.next_seq++;
  m.fn = std::move(fn);
  box.msgs.push_back(std::move(m));
}

// Applies every posted message, globally sorted by (time, src_node,
// dst_node, seq).  Runs between epochs with exclusive access to all lanes;
// a message's closure touches destination-lane state directly and
// schedules follow-up events on the destination engine.  The sort key
// never mentions a lane id, so the merge order — and therefore every
// downstream busy-horizon and delivery time — is identical at any thread
// count.  dst_node is part of the key because seq counts per mailbox: two
// same-instant posts from one source to *different* destinations carry
// equal seqs, and without dst_node their order would fall to the sort's
// whim (and to the lane layout).
void ParallelEngine::drain_mailboxes() {
  merge_buf_.clear();
  for (Mailbox& box : mail_) {
    if (box.msgs.empty()) continue;
    posted_ += box.msgs.size();
    std::move(box.msgs.begin(), box.msgs.end(),
              std::back_inserter(merge_buf_));
    box.msgs.clear();
  }
  if (merge_buf_.empty()) return;
  std::sort(merge_buf_.begin(), merge_buf_.end(),
            [](const Msg& a, const Msg& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.src_node != b.src_node) return a.src_node < b.src_node;
              if (a.dst_node != b.dst_node) return a.dst_node < b.dst_node;
              return a.seq < b.seq;
            });
  for (Msg& m : merge_buf_) m.fn.invoke_and_reset();
  merge_buf_.clear();
}

void ParallelEngine::advance_parts_to(SimTime t) {
  for (auto& p : parts_) p->advance_to(t);
}

void ParallelEngine::run_epoch(SimTime bound) {
  ++epochs_;
  const std::uint64_t t0 = now_ns();
  const auto workers = static_cast<std::uint32_t>(parts_.size() - 1);
  if (workers != 0) {
    epoch_bound_ = bound;
    running_.store(workers, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
  }
  lane_[0].dispatched += parts_[0]->run_while_before(bound);
  lane_[0].busy_ns += now_ns() - t0;
  std::uint32_t left = running_.load(std::memory_order_acquire);
  while (left != 0) left = await_change(running_, left, lane_[0].parks);
  epoch_ns_ += now_ns() - t0;
}

void ParallelEngine::worker_main(unsigned lane) {
  if (cfg_.worker_init) cfg_.worker_init();
  std::uint32_t seen = 0;
  for (;;) {
    seen = await_change(generation_, seen, lane_[lane].parks);
    if (shutdown_) return;
    const std::uint64_t t0 = now_ns();
    lane_[lane].dispatched += parts_[lane]->run_while_before(epoch_bound_);
    lane_[lane].busy_ns += now_ns() - t0;
    if (running_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      running_.notify_one();
    }
  }
}

std::uint64_t ParallelEngine::drive(SimTime deadline, bool bounded) {
  std::uint64_t dispatched = 0;
  for (LaneStats& l : lane_) l.dispatched = 0;
  std::uint64_t global_n = 0;
  const std::uint64_t t0 = now_ns();
  const std::uint64_t in_epochs = epoch_ns_;
  for (;;) {
    drain_mailboxes();

    SimTime g = kNever;
    const bool has_g = global_.peek_next(&g);
    if (!has_g) g = kNever;
    SimTime m = kNever;
    for (auto& p : parts_) {
      SimTime t;
      if (p->peek_next(&t) && t < m) m = t;
    }
    const SimTime next = g < m ? g : m;
    if (next == kNever || (bounded && next > deadline)) break;

    if (g <= m) {
      // The global lane holds the next event: run exactly one, alone, with
      // every partition's clock lined up on its timestamp.  Global events
      // are total barriers — fault injections, cluster drivers — and may
      // touch any lane's state.  At a time tie (g == m) the global event
      // deliberately runs first: a fault at t takes effect before node
      // activity at t.
      advance_parts_to(g);
      if (global_.step()) ++global_n;
      continue;
    }

    // Parallel epoch [m, end): every lane dispatches its own events; no
    // cross-lane interaction can land inside the window (lookahead), so the
    // lanes share nothing until the next barrier.
    SimTime end = m + cfg_.lookahead;
    if (end > g) end = g;
    if (bounded && deadline != kNever && end > deadline + 1) {
      end = deadline + 1;  // events at exactly `deadline` still run
    }
    ++width_log2_[std::bit_width(static_cast<std::uint64_t>(end - m)) - 1];
    run_epoch(end);
  }
  if (bounded) {
    advance_parts_to(deadline);
    global_.advance_to(deadline);
  }
  serial_ns_ += (now_ns() - t0) - (epoch_ns_ - in_epochs);
  for (const LaneStats& l : lane_) dispatched += l.dispatched;
  return dispatched + global_n;
}

ParallelProfile ParallelEngine::profile() const {
  ParallelProfile p;
  p.epoch_ns = epoch_ns_;
  p.serial_ns = serial_ns_;
  for (const LaneStats& l : lane_) {
    p.lane_busy_ns.push_back(l.busy_ns);
    p.lane_parks.push_back(l.parks);
  }
  p.width_log2 = width_log2_;
  return p;
}

std::uint64_t ParallelEngine::run() { return drive(kNever, /*bounded=*/false); }

std::uint64_t ParallelEngine::run_until(SimTime deadline) {
  return drive(deadline, /*bounded=*/true);
}

}  // namespace now::sim
