// Microbenchmarks (google-benchmark): how fast is the simulator itself?
// Event throughput of the engine, CPU scheduler churn, and the full
// Active-Message round-trip machinery — wall-clock costs of the substrate,
// not simulated time.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "coopcache/coopcache.hpp"
#include "coopcache/lru.hpp"
#include "net/hierarchical.hpp"
#include "net/presets.hpp"
#include "obs/metrics.hpp"
#include "os/node.hpp"
#include "proto/am.hpp"
#include "proto/nic_mux.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "trace/fs_trace.hpp"

namespace {

using namespace now;

void BM_EngineScheduleDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < 10'000; ++i) {
      eng.schedule_at(i, [] {});
    }
    benchmark::DoNotOptimize(eng.run());
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_EngineScheduleDispatch);

void BM_EngineCancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    std::vector<sim::EventId> ids;
    ids.reserve(10'000);
    for (int i = 0; i < 10'000; ++i) {
      ids.push_back(eng.schedule_at(i, [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) eng.cancel(ids[i]);
    benchmark::DoNotOptimize(eng.run());
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_EngineCancelHeavy);

// Retransmit-timer churn: a wheel of pending timers that keep getting pushed
// out as (simulated) acks arrive, so they are rearmed many times and rarely
// fire — the am.cpp / cpu.cpp slice-timer pattern.  Uses the in-place
// reschedule() path; the seed engine had to cancel + re-schedule a fresh
// closure for every push.
void BM_EngineTimerWheelChurn(benchmark::State& state) {
  constexpr int kTimers = 256;
  constexpr int kPushes = 40;
  for (auto _ : state) {
    sim::Engine eng;
    std::vector<sim::EventId> timers(kTimers);
    int fired = 0;
    for (int t = 0; t < kTimers; ++t) {
      timers[t] = eng.schedule_at(1'000 + t, [&fired] { ++fired; });
    }
    for (int round = 1; round <= kPushes; ++round) {
      for (int t = 0; t < kTimers; ++t) {
        timers[t] = eng.reschedule(timers[t], 1'000 + 10 * round + t);
      }
    }
    benchmark::DoNotOptimize(eng.run());
    if (fired != kTimers) state.SkipWithError("timer lost in churn");
  }
  state.SetItemsProcessed(state.iterations() * kTimers * kPushes);
}
BENCHMARK(BM_EngineTimerWheelChurn);

// The queue mix measured on the building-scale serving workload: 2048
// client arrivals, each re-armed ~0.7 s out when it fires; every arrival
// starts a chain of µs-scale hops, and each hop arms a ~500 ms timeout that
// the next hop cancels (the RPC timer pattern).  Far timers outnumber the
// near events, and most of them die without ever firing.
class FarTimerMix {
 public:
  static constexpr int kClients = 2048;
  static constexpr int kHops = 8;

  FarTimerMix() {
    for (int c = 0; c < kClients; ++c) {
      eng.schedule_at(rng.next_below(700) * sim::kMillisecond,
                      [this] { arrive(); });
    }
  }

  sim::Engine eng;

 private:
  void arrive() {
    eng.schedule_in(700 * sim::kMillisecond +
                        rng.next_below(1'000) * sim::kMicrosecond,
                    [this] { arrive(); });
    hop(kHops, 0);
  }

  void hop(int left, sim::EventId timeout) {
    if (timeout != 0) eng.cancel(timeout);
    if (left == 0) return;
    const sim::EventId t = eng.schedule_in(500 * sim::kMillisecond, [] {});
    eng.schedule_in(1 + rng.next_below(10'000),
                    [this, left, t] { hop(left - 1, t); });
  }

  sim::Pcg32 rng{7};
};

void BM_EngineFarTimers(benchmark::State& state) {
  FarTimerMix mix;
  mix.eng.run_until(sim::kSecond);  // past the first round of arrivals
  const std::uint64_t before = mix.eng.dispatched();
  for (auto _ : state) {
    mix.eng.run_until(mix.eng.now() + 10 * sim::kMillisecond);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(mix.eng.dispatched() - before));
}
BENCHMARK(BM_EngineFarTimers);

// The delay mix measured on the 17-node xFS serving workload: a few dozen
// request chains, each hop 0 ns (16 %), ~1 us (16 %), ~8 us (24 %), ~32 us
// (25 %) or 130-260 us (13 %) after the last, and every hop arming a 100 ms
// or 500 ms call timer that the next hop cancels.  Few events fall due in
// any microsecond, so a bare radix queue refills a bucket on nearly every
// dispatch.
class ServeShapedMix {
 public:
  static constexpr int kChains = 40;

  ServeShapedMix() {
    for (int c = 0; c < kChains; ++c) {
      eng.schedule_at(rng.next_below(100'000), [this] { hop(0); });
    }
  }

  sim::Engine eng;

 private:
  sim::Duration delay() {
    const std::uint32_t r = rng.next_below(100);
    if (r < 16) return 0;
    if (r < 32) return 800 + rng.next_below(500);
    if (r < 56) return 6'000 + rng.next_below(4'000);
    if (r < 81) return 24'000 + rng.next_below(16'000);
    if (r < 94) return 130'000 + rng.next_below(130'000);
    return 1 + rng.next_below(2'000);
  }

  void hop(sim::EventId timeout) {
    eng.cancel(timeout);
    const sim::EventId t = eng.schedule_in(
        (rng.next_below(2) == 0 ? 100 : 500) * sim::kMillisecond, [] {});
    eng.schedule_in(delay(), [this, t] { hop(t); });
  }

  sim::Pcg32 rng{5};
};

void BM_EngineServeShaped(benchmark::State& state) {
  ServeShapedMix mix;
  mix.eng.run_until(sim::kSecond);  // past the first 500 ms timers
  const std::uint64_t before = mix.eng.dispatched();
  for (auto _ : state) {
    mix.eng.run_until(mix.eng.now() + sim::kMillisecond);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(mix.eng.dispatched() - before));
}
BENCHMARK(BM_EngineServeShaped);

// Dense traffic: 400 self-rescheduling chains whose hops are 0-4 us apart,
// so hundreds of events are pending within a few microseconds — the
// building-scale fabric and parallel-program pattern.  A queue that keeps
// a wide window here sifts through all of them on every operation.
void BM_EngineDense(benchmark::State& state) {
  constexpr int kChains = 400;
  sim::Engine eng;
  sim::Pcg32 rng(13);
  struct Chain {
    sim::Engine* eng;
    sim::Pcg32* rng;
    void operator()() const {
      eng->schedule_in(rng->next_below(4'096), Chain{*this});
    }
  };
  for (int c = 0; c < kChains; ++c) {
    eng.schedule_at(rng.next_below(4'096), Chain{&eng, &rng});
  }
  eng.run_until(sim::kMillisecond);
  const std::uint64_t before = eng.dispatched();
  for (auto _ : state) {
    eng.run_until(eng.now() + 10 * sim::kMicrosecond);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(eng.dispatched() - before));
}
BENCHMARK(BM_EngineDense);

// Four self-rescheduling chains whose hops are one to three hours apart:
// almost every dispatch crosses an idle gap of hours.  A queue that steps
// through fixed-width time buckets crawls here.
void BM_EngineSparseEvents(benchmark::State& state) {
  constexpr int kEvents = 1'024;
  struct Chain {
    sim::Engine* eng;
    sim::Pcg32* rng;
    int* left;
    void operator()() const {
      if (--*left > 0) {
        eng->schedule_in(sim::kHour + rng->next_below(7'200) * sim::kSecond,
                         Chain{*this});
      }
    }
  };
  sim::Pcg32 rng(11);
  for (auto _ : state) {
    sim::Engine eng;
    int left = kEvents;
    for (int c = 0; c < 4; ++c) {
      eng.schedule_in(c * sim::kHour, Chain{&eng, &rng, &left});
    }
    benchmark::DoNotOptimize(eng.run());
  }
  state.SetItemsProcessed(state.iterations() * (kEvents + 3));
}
BENCHMARK(BM_EngineSparseEvents);

void BM_Pcg32Stream(benchmark::State& state) {
  sim::Pcg32 rng(42);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    acc += rng.next_u32();
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_Pcg32Stream);

void BM_CpuScheduleRoundRobin(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    os::CpuParams cp;
    cp.context_switch = 0;
    os::Cpu cpu(eng, cp);
    std::vector<os::ProcessId> pids(8);
    int done = 0;
    for (int i = 0; i < 8; ++i) {
      pids[i] = cpu.spawn("p", os::SchedClass::kBatch,
                          [&cpu, &pids, &done, i] {
                            cpu.compute(pids[i], 5 * sim::kSecond,
                                        [&cpu, &pids, &done, i] {
                                          ++done;
                                          cpu.exit(pids[i]);
                                        });
                          });
    }
    eng.run();
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_CpuScheduleRoundRobin);

void BM_AmRoundTrips(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    net::HierarchicalNetwork fabric(eng, net::myrinet());
    proto::NicMux mux(fabric);
    proto::AmLayer am(mux, proto::AmParams{});
    os::Node n0(eng, 0, os::NodeParams{});
    os::Node n1(eng, 1, os::NodeParams{});
    mux.attach_node(n0);
    mux.attach_node(n1);
    const auto e0 = am.create_endpoint(n0, proto::AmLayer::Mode::kInterrupt);
    const auto e1 = am.create_endpoint(n1, proto::AmLayer::Mode::kInterrupt);
    int pongs = 0;
    am.register_handler(e1, 1, [&](const proto::AmMessage&) {
      am.send(e1, e0, 2, 16, {});
    });
    am.register_handler(e0, 2, [&](const proto::AmMessage&) {
      if (++pongs < 200) am.send(e0, e1, 1, 16, {});
    });
    am.send(e0, e1, 1, 16, {});
    eng.run();
    benchmark::DoNotOptimize(pongs);
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_AmRoundTrips);

// The per-port instrument pattern the fabrics moved away from: building a
// dotted path and walking the registry map on every packet.  Paired with
// BM_ObsGaugeCachedHandle below, this is the measured win of registering
// gauge handles once at attach() time (HierarchicalNetwork keeps them in
// flat per-node vectors).
void BM_ObsGaugeDottedLookup(benchmark::State& state) {
  obs::MetricsRegistry reg;
  for (int i = 0; i < 256; ++i) {
    reg.gauge("net.link" + std::to_string(i) + ".queue_us");
  }
  std::uint32_t i = 0;
  for (auto _ : state) {
    reg.gauge("net.link" + std::to_string(i & 255u) + ".queue_us")
        .set(static_cast<double>(i));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsGaugeDottedLookup);

void BM_ObsGaugeCachedHandle(benchmark::State& state) {
  obs::MetricsRegistry reg;
  std::vector<obs::Gauge*> handles;
  for (int i = 0; i < 256; ++i) {
    handles.push_back(&reg.gauge("net.link" + std::to_string(i) +
                                 ".queue_us"));
  }
  std::uint32_t i = 0;
  for (auto _ : state) {
    handles[i & 255u]->set(static_cast<double>(i));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsGaugeCachedHandle);

// Full per-packet path of a flat (one-rack) switched fabric: send() + the
// scheduled delivery event, 256 attached nodes, every send crossing the
// switch.  Wall-clock cost per simulated packet.
void BM_OneRackSendHotPath(benchmark::State& state) {
  sim::Engine eng;
  net::HierarchicalNetwork fabric(eng, net::myrinet());
  constexpr std::uint32_t kNodes = 256;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    fabric.attach(n, [](net::Packet&&) {});
  }
  std::uint32_t i = 0;
  for (auto _ : state) {
    net::Packet p;
    p.src = i & (kNodes - 1);
    p.dst = (p.src + kNodes / 2) & (kNodes - 1);
    p.size_bytes = 512;
    fabric.send(std::move(p));
    eng.run();
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OneRackSendHotPath);

// Same measurement through the hierarchical fat tree at building scale:
// 1024 nodes in 32 racks, every packet cross-rack (4 links, 3 switch
// crossings, trunk busy-horizon bookkeeping).  The SoA hot path keeps this
// within sight of the one-rack cost despite doing twice the hops.
void BM_HierarchicalSendHotPath(benchmark::State& state) {
  sim::Engine eng;
  net::HierarchicalNetwork fabric(eng, net::building_now(32, 32, 4.0));
  constexpr std::uint32_t kNodes = 1024;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    fabric.attach(n, [](net::Packet&&) {});
  }
  std::uint32_t i = 0;
  for (auto _ : state) {
    net::Packet p;
    p.src = i & (kNodes - 1);
    p.dst = (p.src + kNodes / 2) & (kNodes - 1);
    p.size_bytes = 512;
    fabric.send(std::move(p));
    eng.run();
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchicalSendHotPath);

void BM_LruCacheOps(benchmark::State& state) {
  coopcache::LruCache cache(1024);
  sim::Pcg32 rng(3);
  for (auto _ : state) {
    const std::uint64_t k = rng.next_below(4096);
    if (!cache.touch(k)) cache.insert(k);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruCacheOps);

void BM_CoopCacheReplay(benchmark::State& state) {
  trace::FsWorkloadParams wp;
  wp.clients = 8;
  wp.accesses_per_client = 4'000;
  const auto accesses = trace::generate_fs_trace(wp);
  for (auto _ : state) {
    coopcache::CoopCacheConfig cfg;
    cfg.clients = wp.clients;
    cfg.client_cache_blocks = 256;
    cfg.server_cache_blocks = 1'024;
    cfg.policy = coopcache::Policy::kNChance;
    coopcache::CoopCacheSim sim(cfg);
    for (const auto& a : accesses) {
      sim.access(a.client, a.block, a.is_write);
    }
    benchmark::DoNotOptimize(sim.results().disk_reads);
  }
  state.SetItemsProcessed(state.iterations() * accesses.size());
}
BENCHMARK(BM_CoopCacheReplay);

}  // namespace

BENCHMARK_MAIN();
