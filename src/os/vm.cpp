#include "os/vm.hpp"

#include <cassert>

namespace now::os {

AddressSpace::AddressSpace(sim::Engine& engine, std::uint32_t frames,
                           std::uint32_t page_bytes, Pager& pager,
                           std::uint32_t node)
    : engine_(engine), frames_(frames), page_bytes_(page_bytes),
      pager_(pager), node_(node),
      obs_track_(obs::tracer().track("os")),
      stats_obs_("os.vm", [this](obs::Sink& s) {
        s.counter("references", stats_.references);
        s.counter("hits", stats_.hits);
        s.counter("faults", stats_.faults);
        s.counter("evictions", stats_.evictions);
        s.counter("writebacks", stats_.writebacks);
      }) {
  assert(frames > 0 && page_bytes > 0);
}

bool AddressSpace::resident(std::uint64_t page) const {
  return table_.contains(page);
}

void AddressSpace::reference(std::uint64_t page, bool write) {
  ++stats_.references;
  auto it = table_.find(page);
  assert(it != table_.end() && "reference() on non-resident page");
  ++stats_.hits;
  lru_.erase(it->second.lru_pos);
  lru_.push_front(page);
  it->second.lru_pos = lru_.begin();
  it->second.dirty = it->second.dirty || write;
}

void AddressSpace::access(std::uint64_t page, bool write,
                          std::function<void()> done) {
  if (resident(page)) {
    reference(page, write);
    done();
    return;
  }
  fault(page, write, std::move(done));
}

void AddressSpace::access_from_process(Cpu& cpu, ProcessId pid,
                                       std::uint64_t page, bool write,
                                       std::function<void()> then) {
  if (resident(page)) {
    reference(page, write);
    then();
    return;
  }
  // Faulting process sleeps until the pager delivers the page.  The fault
  // path always crosses at least one engine event, so the wake cannot beat
  // the block below.
  fault(page, write, [&cpu, pid] { cpu.wake(pid); });
  cpu.block(pid, std::move(then));
}

void AddressSpace::evict_one(std::function<void()> then) {
  assert(!lru_.empty());
  const std::uint64_t victim = lru_.back();
  lru_.pop_back();
  const auto it = table_.find(victim);
  assert(it != table_.end());
  const bool dirty = it->second.dirty;
  table_.erase(it);
  ++stats_.evictions;
  if (dirty) {
    // Asynchronous writeback, as a real page daemon's write buffer would
    // do: the faulting process does not wait for the victim to land, but
    // the writeback still occupies the backing store (so a thrashing swap
    // disk serves the write before the next read — queueing is preserved).
    ++stats_.writebacks;
    pager_.page_out(victim, [] {});
  }
  then();
}

void AddressSpace::fault(std::uint64_t page, bool write,
                         std::function<void()> done) {
  ++stats_.references;
  assert(!resident(page));

  auto [it, fresh] = inflight_.try_emplace(page);
  it->second.push_back(std::move(done));
  if (!fresh) return;  // fetch already in progress; piggyback
  ++stats_.faults;
  if (obs::tracer().enabled()) {
    // Fault service span: fault instant to the page landing in memory.
    const sim::SimTime t0 = engine_.now();
    it->second.back() = [this, t0, cb = std::move(it->second.back())] {
      obs::tracer().complete(node_, obs_track_, "page_fault", t0,
                             engine_.now());
      cb();
    };
  }

  auto fetch = [this, page, write] {
    pager_.page_in(page, [this, page, write] { finish_fetch(page, write); });
  };

  if (table_.size() + frames_reserved_ >= frames_) {
    ++frames_reserved_;
    evict_one([this, fetch = std::move(fetch)] {
      --frames_reserved_;
      // Reserve the freed frame for this fetch until it lands.
      ++frames_reserved_;
      fetch();
    });
  } else {
    ++frames_reserved_;
    fetch();
  }
}

void AddressSpace::finish_fetch(std::uint64_t page, bool write) {
  --frames_reserved_;
  lru_.push_front(page);
  table_.emplace(page, Entry{lru_.begin(), write});
  auto node = inflight_.extract(page);
  assert(!node.empty());
  for (auto& cb : node.mapped()) cb();
}

void AddressSpace::discard_all() {
  lru_.clear();
  table_.clear();
}

}  // namespace now::os
