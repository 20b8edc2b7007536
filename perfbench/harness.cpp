#include "harness.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>

namespace perfbench {

void Digest::add_double(double d) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof d);
  std::memcpy(&bits, &d, sizeof bits);
  add(bits);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quartile_spread(std::vector<double> v) {
  const std::size_t n = v.size();
  if (n < 2) return 0.0;
  std::sort(v.begin(), v.end());
  // statistics.quantiles' default ("exclusive") method.
  const auto quartile = [&](long i) {
    const long m = static_cast<long>(n) + 1;
    const long j = std::clamp(i * m / 4, 1L, static_cast<long>(n) - 1);
    const auto delta = static_cast<double>(i * m - 4 * j);
    return (v[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
            v[static_cast<std::size_t>(j)] * delta) /
           4.0;
  };
  const double mid = median(v);
  return mid > 0 ? (quartile(3) - quartile(1)) / mid : 0.0;
}

namespace {

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

double reference_kernel_seconds() {
  // The memory half probes a table far larger than the L2 cache, built once
  // per process outside the timing.
  static const auto table = [] {
    auto* t = new std::unordered_map<std::uint64_t, std::uint64_t>;
    std::uint64_t x = 1234567;
    for (std::uint64_t i = 0; i < 600'000; ++i) {
      (*t)[xorshift(x) % 4'000'000] = i;
    }
    return t;
  }();
  const auto t0 = Clock::now();
  // Compute half: hash-map updates and a binary heap, like the engine and
  // the protocol layers.
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap;
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t acc = 0;
  for (int i = 0; i < 200'000; ++i) {
    xorshift(x);
    map[x % 100'000] += static_cast<std::uint64_t>(i);
    heap.push(x % 1'000'003);
    if (heap.size() > 4'096) {
      acc += heap.top();
      heap.pop();
    }
    acc += map.count((x >> 20) % 100'000);
  }
  // Memory half: random lookups in the large table, like the cache
  // directories of the storage layers.
  for (int i = 0; i < 300'000; ++i) {
    const auto it = table->find(xorshift(x) % 4'000'000);
    if (it != table->end()) acc += it->second;
  }
  volatile std::uint64_t sink = acc;
  (void)sink;
  return seconds_since(t0);
}

namespace {

/// A few hash-map and heap updates: one lane's share of an epoch.
std::uint64_t epoch_work(std::uint64_t& x) {
  static thread_local std::unordered_map<std::uint64_t, std::uint64_t> map;
  static thread_local std::priority_queue<std::uint64_t,
                                          std::vector<std::uint64_t>,
                                          std::greater<>>
      heap;
  std::uint64_t acc = 0;
  for (int i = 0; i < 30; ++i) {
    xorshift(x);
    map[x % 4'096] += 1;
    heap.push(x % 1'000'003);
    if (heap.size() > 256) {
      acc += heap.top();
      heap.pop();
    }
  }
  return acc;
}

/// A second thread woken for every round the way a sim::ParallelEngine lane
/// worker is woken for every epoch: a generation bump under a mutex, a
/// condition variable to start, a running count and a second condition
/// variable to finish.
class HandOff {
 public:
  HandOff() : worker_([this] { serve(); }) {}
  ~HandOff() {
    {
      std::lock_guard<std::mutex> lk(m_);
      shutdown_ = true;
      ++generation_;
    }
    work_cv_.notify_all();
    worker_.join();
  }
  HandOff(const HandOff&) = delete;
  HandOff& operator=(const HandOff&) = delete;

  std::uint64_t round(std::uint64_t& x) {
    {
      std::lock_guard<std::mutex> lk(m_);
      running_ = 2;
      ++generation_;
    }
    work_cv_.notify_all();
    const std::uint64_t acc = epoch_work(x);
    std::unique_lock<std::mutex> lk(m_);
    if (--running_ != 0) {
      done_cv_.wait(lk, [this] { return running_ == 0; });
    } else {
      done_cv_.notify_all();
    }
    return acc;
  }

 private:
  void serve() {
    std::uint64_t seen = 0;
    std::uint64_t x = 2463534242ull;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(m_);
        work_cv_.wait(lk, [&] { return generation_ != seen; });
        seen = generation_;
        if (shutdown_) return;
      }
      sink_ += epoch_work(x);
      std::lock_guard<std::mutex> lk(m_);
      if (--running_ == 0) done_cv_.notify_all();
    }
  }

  std::mutex m_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  unsigned running_ = 0;
  bool shutdown_ = false;
  std::uint64_t sink_ = 0;
  std::thread worker_;  // last: starts once the state above exists
};

}  // namespace

double handoff_kernel_seconds() {
  static HandOff handoff;  // joined at exit
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t acc = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kHandOffRounds; ++i) acc += handoff.round(x);
  volatile std::uint64_t sink = acc;
  (void)sink;
  return seconds_since(t0);
}

std::int64_t Spans::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Spans::begin(const char* name) {
  if (!enabled_) return -1;
  spans_.push_back({name, open_, now_ns(), -1});
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void Spans::end(int handle) {
  if (handle < 0) return;
  Span& s = spans_[static_cast<std::size_t>(handle)];
  s.end_ns = now_ns();
  open_ = s.parent;
}

void Spans::sample(double sim_ms,
                   const std::vector<std::pair<const char*, double>>& values) {
  if (!enabled_) return;
  samples_.push_back({now_ns(), sim_ms, values});
}

std::map<std::string, double> Spans::total_seconds(std::size_t first,
                                                   std::size_t last) const {
  std::map<std::string, double> out;
  for (std::size_t i = first; i < last; ++i) {
    const Span& s = spans_[i];
    out[s.name] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
  }
  return out;
}

std::map<std::string, double> Spans::self_seconds(std::size_t first,
                                                  std::size_t last) const {
  // Children never overlap one another (one thread records), so a span's
  // covered time is the sum of its direct children's durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (std::size_t i = first; i < last; ++i) {
    const Span& s = spans_[i];
    if (s.parent >= static_cast<int>(first)) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = first; i < last; ++i) {
    const Span& s = spans_[i];
    out[s.name] +=
        1e-9 * static_cast<double>(s.end_ns - s.start_ns - child_ns[i]);
  }
  return out;
}

bool Spans::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  bool first = true;
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  first ? "" : ",\n", s.name, 1e-3 * s.start_ns,
                  1e-3 * static_cast<double>(s.end_ns - s.start_ns));
    out << buf;
    first = false;
  }
  for (const Sample& smp : samples_) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"layers\",\"ph\":\"C\",\"pid\":1,\"ts\":%.3f,"
                  "\"args\":{\"sim_ms\":%.6f",
                  first ? "" : ",\n", 1e-3 * smp.at_ns, smp.sim_ms);
    out << buf;
    for (const auto& [name, v] : smp.values) {
      std::snprintf(buf, sizeof buf, ",\"%s\":%.17g", name, v);
      out << buf;
    }
    out << "}}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
