// Tests for the now::obs observability subsystem: the metrics registry
// and the component collectors behind it, simulated-time span tracing
// with its Chrome-JSON exporter, and the periodic sampler.  Everything
// here runs against fresh local registries or clears the process-wide
// singletons up front, so the tests do not depend on what other
// instrumented code has already registered.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "core/cluster.hpp"
#include "net/hierarchical.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "os/disk.hpp"
#include "os/node.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace now::obs {
namespace {

// --- MetricsRegistry ----------------------------------------------------

TEST(MetricsRegistry, LookupCreatesOnceAndReturnsStableHandles) {
  MetricsRegistry reg;
  Gauge& a = reg.gauge("net.link0.queue_us");
  Gauge& b = reg.gauge("net.link0.queue_us");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);

  a.set(3.0);
  EXPECT_DOUBLE_EQ(b.value(), 3.0);
  EXPECT_EQ(reg.find<double>("net.link0.queue_us"), 3.0);
  EXPECT_FALSE(reg.find<double>("net.nope"));
  EXPECT_FALSE(reg.find<std::uint64_t>("net.link0.queue_us"));  // wrong kind
}

TEST(MetricsRegistry, ReadCoversEveryKind) {
  MetricsRegistry reg;
  MetricsRegistry* prev = set_thread_metrics(&reg);
  reg.gauge("g").set(2.5);
  sim::Summary s;
  s.add(10.0);
  s.add(20.0);
  sim::Histogram h;
  h.add(4.0);
  const Collector dists("d", [&](Sink& sink) {
    sink.counter("c", 7);
    sink.summary("s", s);
    sink.histogram("h", h);
  });
  set_thread_metrics(prev);

  double v = 0;
  EXPECT_TRUE(reg.read("d.c", &v));
  EXPECT_DOUBLE_EQ(v, 7.0);
  EXPECT_TRUE(reg.read("g", &v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_TRUE(reg.read("d.s", &v));
  EXPECT_DOUBLE_EQ(v, 15.0);  // distributions read as their mean
  EXPECT_TRUE(reg.read("d.h", &v));
  EXPECT_DOUBLE_EQ(v, 4.0);
  EXPECT_FALSE(reg.read("missing", &v));
}

TEST(MetricsRegistry, DumpIsSortedAndDeterministic) {
  MetricsRegistry reg;
  // Registered out of order; the dump must come out sorted.
  reg.gauge("zeta").set(1.0);
  reg.gauge("alpha").set(1.0);
  reg.gauge("mid.path").set(2.0);

  const std::string d1 = reg.dump_json();
  EXPECT_LT(d1.find("\"alpha\""), d1.find("\"mid.path\""));
  EXPECT_LT(d1.find("\"mid.path\""), d1.find("\"zeta\""));

  // A second registry built the same way dumps byte-identically.
  MetricsRegistry reg2;
  reg2.gauge("zeta").set(1.0);
  reg2.gauge("alpha").set(1.0);
  reg2.gauge("mid.path").set(2.0);
  EXPECT_EQ(d1, reg2.dump_json());
}

TEST(MetricsRegistry, DisabledUpdatesAreDropped) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("g");
  set_enabled(false);
  g.set(9.0);
  set_enabled(true);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(5.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
}

// --- Collectors -----------------------------------------------------------

/// Installs `reg` as the calling thread's registry for one scope.
class ScopedMetrics {
 public:
  explicit ScopedMetrics(MetricsRegistry& reg)
      : prev_(set_thread_metrics(&reg)) {}
  ~ScopedMetrics() { set_thread_metrics(prev_); }

 private:
  MetricsRegistry* prev_;
};

TEST(Collector, LiveInstancesSumAndDestroyedOnesDropOut) {
  MetricsRegistry reg;
  ScopedMetrics scope(reg);
  std::uint64_t a_ops = 3, b_ops = 4;
  sim::Summary a_lat, b_lat;
  a_lat.add(1.0);
  b_lat.add(3.0);
  auto a = std::make_unique<Collector>("comp", [&](Sink& s) {
    s.counter("ops", a_ops);
    s.gauge("level", 1.5);
    s.summary("lat_us", a_lat);
  });
  {
    Collector b("comp", [&](Sink& s) {
      s.counter("ops", b_ops);
      s.gauge("level", 2.0);
      s.summary("lat_us", b_lat);
    });
    EXPECT_EQ(reg.find<std::uint64_t>("comp.ops"), 7u);
    EXPECT_EQ(reg.find<double>("comp.level"), 3.5);
    const auto lat = reg.find<sim::Summary>("comp.lat_us");
    ASSERT_TRUE(lat);
    EXPECT_EQ(lat->count(), 2u);
    EXPECT_DOUBLE_EQ(lat->mean(), 2.0);
    // Reads go to the live struct: there is no second copy to go stale.
    b_ops = 10;
    EXPECT_EQ(reg.find<std::uint64_t>("comp.ops"), 13u);
    double v = 0;
    EXPECT_TRUE(reg.read("comp.ops", &v));
    EXPECT_DOUBLE_EQ(v, 13.0);
  }
  // b is gone: the next dump holds a's values alone.
  EXPECT_EQ(reg.find<std::uint64_t>("comp.ops"), 3u);
  EXPECT_NE(reg.dump_json().find("\"comp.ops\": 3\n"), std::string::npos);
  a.reset();
  EXPECT_FALSE(reg.find<std::uint64_t>("comp.ops"));
  EXPECT_EQ(reg.dump_json().find("comp."), std::string::npos);
}

TEST(Collector, OutlivingItsRegistryIsHarmless) {
  auto reg = std::make_unique<MetricsRegistry>();
  MetricsRegistry* prev = set_thread_metrics(reg.get());
  auto c = std::make_unique<Collector>("comp",
                                       [](Sink& s) { s.counter("ops", 1); });
  set_thread_metrics(prev);
  reg.reset();  // detaches c; its destructor must not touch the registry
  c.reset();
}

TEST(Collector, DiskQueueDepthSumsEveryLiveDisk) {
  MetricsRegistry reg;
  ScopedMetrics scope(reg);
  sim::Engine engine;
  os::Disk d1(engine, os::DiskParams{});
  os::Disk d2(engine, os::DiskParams{});
  for (std::uint64_t i = 0; i < 3; ++i) d1.read(i << 20, 8192, [] {});
  for (std::uint64_t i = 0; i < 2; ++i) d2.write(i << 20, 8192, [] {});
  ASSERT_EQ(d1.queue_depth(), 3u);  // one in service, two waiting
  ASSERT_EQ(d2.queue_depth(), 2u);
  EXPECT_EQ(reg.find<double>("os.disk.queue_depth"), 5.0);
  engine.run();
  EXPECT_EQ(reg.find<double>("os.disk.queue_depth"), 0.0);
  EXPECT_EQ(reg.find<std::uint64_t>("os.disk.reads"), 3u);
  EXPECT_EQ(reg.find<std::uint64_t>("os.disk.writes"), 2u);
}

/// Every scalar (counter or gauge) line of a dump, by path.  Native
/// per-link gauges are skipped: they have no struct behind them.
std::map<std::string, double> dumped_scalars(const MetricsRegistry& reg) {
  std::map<std::string, double> out;
  std::istringstream lines(reg.dump_json());
  std::string line;
  while (std::getline(lines, line)) {
    const auto q = line.find('"');
    const auto colon = line.find("\": ");
    if (q == std::string::npos || colon == std::string::npos) continue;
    const std::string path = line.substr(q + 1, colon - q - 1);
    const std::string value = line.substr(colon + 3);
    if (value.front() == '{' || path.ends_with(".queue_us")) continue;
    out[path] = std::stod(value);
  }
  return out;
}

/// What the dump must say, field by field, from the components' stats().
std::map<std::string, double> expected_scalars(Cluster& c) {
  std::map<std::string, double> e;
  const xfs::XfsStats& x = c.fs().stats();
  e["xfs.reads"] = x.reads;
  e["xfs.writes"] = x.writes;
  e["xfs.local_hits"] = x.local_hits;
  e["xfs.peer_fetches"] = x.peer_fetches;
  e["xfs.log_reads"] = x.log_reads;
  e["xfs.zero_fills"] = x.zero_fills;
  e["xfs.invalidations"] = x.invalidations;
  e["xfs.ownership_transfers"] = x.ownership_transfers;
  e["xfs.segments_flushed"] = x.segments_flushed;
  e["xfs.evict_notices"] = x.evict_notices;
  e["xfs.op_retries"] = x.op_retries;
  e["xfs.failed_ops"] = x.failed_ops;
  e["xfs.lost_dirty_blocks"] = x.lost_dirty_blocks;
  e["xfs.manager_takeovers"] = x.manager_takeovers;
  const xfs::LogStats& l = c.log().stats();
  e["xfs.log.segments_written"] = l.segments_written;
  e["xfs.log.blocks_appended"] = l.blocks_appended;
  e["xfs.log.blocks_read"] = l.blocks_read;
  e["xfs.log.segments_cleaned"] = l.segments_cleaned;
  e["xfs.log.live_blocks_copied"] = l.live_blocks_copied;
  e["xfs.log.segments_archived"] = l.segments_archived;
  e["xfs.log.tape_reads"] = l.tape_reads;
  e["xfs.log.utilization"] = c.log().utilization();
  const proto::AmStats& a = c.am().stats();
  e["am.sent"] = a.sent;
  e["am.retransmits"] = a.retransmits;
  e["am.handled"] = a.handled;
  e["am.acks"] = a.acks;
  e["am.injected_losses"] = a.injected_losses;
  e["am.stalled_sends"] = a.stalled_sends;
  e["am.pair_failures"] = a.pair_failures;
  const net::NetworkStats& n = c.network().stats();
  e["net.packets_sent"] = n.packets_sent;
  e["net.packets_delivered"] = n.packets_delivered;
  e["net.packets_dropped"] = n.packets_dropped;
  e["net.link_drops"] = n.link_drops;
  e["net.bytes_sent"] = n.bytes_sent;
  const net::HierarchicalStats& h =
      static_cast<const net::HierarchicalNetwork&>(c.network()).hier_stats();
  e["net.rack_local_packets"] = h.rack_local_packets;
  e["net.cross_rack_packets"] = h.cross_rack_packets;
  const glunix::GuestStats& g = c.glunix().stats();
  e["glunix.launched"] = g.launched;
  e["glunix.completed"] = g.completed;
  e["glunix.migrations"] = g.migrations;
  e["glunix.crash_restarts"] = g.crash_restarts;
  e["glunix.waiting_peak"] = g.waiting_peak;
  e["glunix.gangs_launched"] = g.gangs_launched;
  e["glunix.gangs_completed"] = g.gangs_completed;
  e["glunix.gang_pauses"] = g.gang_pauses;
  e["glunix.owner_evictions"] = g.owner_evictions;
  e["glunix.idle_nodes"] = c.glunix().idle_node_count();
  const fault::FaultStats& f = c.faults().stats();
  e["fault.node_crashes"] = f.node_crashes;
  e["fault.node_restarts"] = f.node_restarts;
  e["fault.link_downs"] = f.link_downs;
  e["fault.link_ups"] = f.link_ups;
  e["fault.disk_fails"] = f.disk_fails;
  e["fault.disk_replacements"] = f.disk_replacements;
  e["fault.owner_returns"] = f.owner_returns;
  e["fault.manager_takeovers"] = f.manager_takeovers;
  e["fault.rebuilds_started"] = f.rebuilds_started;
  e["fault.rebuilds_completed"] = f.rebuilds_completed;
  e["fault.donor_revocations"] = f.donor_revocations;
  e["fault.nodes_down"] = c.faults().nodes_down();
  const netram::RegistryStats& r = c.memory_registry().stats();
  e["netram.donor_revocations"] = r.donor_revocations;
  e["netram.donor_crashes"] = r.donor_crashes;
  // Per-node instances sum under one prefix.
  for (const char* k : {"os.cpu.dispatches", "os.cpu.preemptions",
                        "os.disk.reads", "os.disk.writes",
                        "os.disk.queue_depth"}) {
    e[k] = 0;
  }
  for (std::uint32_t i = 0; i < c.size(); ++i) {
    e["os.cpu.dispatches"] += c.node(i).cpu().stats().dispatches;
    e["os.cpu.preemptions"] += c.node(i).cpu().stats().preemptions;
    e["os.disk.reads"] += c.node(i).disk().reads();
    e["os.disk.writes"] += c.node(i).disk().writes();
    e["os.disk.queue_depth"] += c.node(i).disk().queue_depth();
  }
  return e;
}

/// A small faulted run over the whole stack: xFS traffic, GLUnix jobs,
/// network-RAM donors, and a fault plan touching every injector path.
/// Checks that every collected path equals its stats() field.
void check_faulted_cluster_against_stats() {
  MetricsRegistry reg;
  ScopedMetrics scope(reg);
  ClusterConfig cfg;
  cfg.workstations = 8;
  cfg.with_xfs = true;
  cfg.with_netram_registry = true;
  cfg.glunix.poll_interval = sim::kSecond;
  cfg.fault_plan.disk_fail_at(1 * sim::kSecond, 6)
      .crash_at(2 * sim::kSecond, 3)
      .link_down_at(3 * sim::kSecond, 5)
      .link_up_at(4 * sim::kSecond, 5)
      .disk_replace_at(5 * sim::kSecond, 6)
      .restart_at(6 * sim::kSecond, 3)
      .owner_return_at(7 * sim::kSecond, 2);
  Cluster c(cfg);
  c.memory_registry().add_donor(c.node(2));
  c.memory_registry().add_donor(c.node(3));

  sim::Pcg32 rng(3, 0x6f6273);
  for (int i = 0; i < 120; ++i) {
    const auto at = static_cast<sim::SimTime>(i) * 80 * sim::kMillisecond;
    const auto node = rng.next_below(cfg.workstations);
    const xfs::BlockId b = rng.next_below(300);
    const bool write = rng.bernoulli(0.4);
    c.engine().schedule_at(at, [&c, node, b, write] {
      if (!c.node(node).alive()) return;
      if (write) {
        c.fs().write(node, b, [](bool) {});
      } else {
        c.fs().read(node, b, [](bool) {});
      }
    });
  }
  for (int j = 0; j < 4; ++j) {
    c.engine().schedule_at((1 + 2 * j) * sim::kSecond, [&c] {
      c.glunix().run_remote(3 * sim::kSecond, 4ull << 20,
                            [](net::NodeId) {});
    });
  }
  c.run_until(20 * sim::kSecond);

  EXPECT_EQ(dumped_scalars(reg), expected_scalars(c));
  EXPECT_GT(c.fs().stats().reads, 0u);
  EXPECT_GT(c.faults().stats().node_crashes, 0u);

  // Distributions: one instance reports its summary as is...
  const auto read_us = reg.find<sim::Summary>("xfs.read_latency_us");
  ASSERT_TRUE(read_us);
  EXPECT_EQ(read_us->count(), c.fs().stats().read_latency_us.count());
  EXPECT_EQ(read_us->mean(), c.fs().stats().read_latency_us.mean());
  EXPECT_EQ(reg.find<sim::Summary>("am.msg_latency_us")->count(),
            c.am().stats().msg_latency_us.count());
  EXPECT_EQ(reg.find<sim::Summary>("net.wire_time_us")->count(),
            c.network().stats().wire_time_us.count());
  EXPECT_EQ(reg.find<sim::Summary>("fault.downtime_ms")->count(),
            c.faults().stats().downtime_ms.count());
  EXPECT_EQ(reg.find<sim::Summary>("fault.rebuild_ms")->count(),
            c.faults().stats().rebuild_ms.count());
  // ...and per-node ones merge.
  std::uint64_t runq = 0, service = 0;
  for (std::uint32_t i = 0; i < c.size(); ++i) {
    runq += c.node(i).cpu().stats().run_queue_len.count();
    service += c.node(i).disk().service_time_us().count();
  }
  EXPECT_EQ(reg.find<sim::Summary>("os.cpu.run_queue_len")->count(), runq);
  EXPECT_EQ(reg.find<sim::Summary>("os.disk.service_us")->count(), service);
}

TEST(Collector, FaultedClusterPathsEqualStats) {
  check_faulted_cluster_against_stats();
}

TEST(Collector, CountsDoNotDependOnTheKillSwitch) {
  set_enabled(false);
  check_faulted_cluster_against_stats();
  set_enabled(true);
}

// Collectors read lane-written structs; the sampler reads them from the
// cluster engine's exclusive global events.  The timeline must not depend
// on the lane count (and, under TSan, the reads must not race the lanes).
// Only integer columns: a mean summed across lanes may differ in its last
// digits (DESIGN.md §12).
std::string sample_echo_cluster(unsigned threads) {
  constexpr proto::MethodId kEcho = 9;
  constexpr std::uint32_t kNodes = 8;
  constexpr sim::SimTime kEnd = 20 * sim::kMillisecond;
  MetricsRegistry reg;
  ScopedMetrics scope(reg);
  ClusterConfig cfg;
  cfg.workstations = kNodes;
  cfg.with_glunix = false;
  cfg.threads = threads;
  cfg.partitioning = Partitioning::kNodeLocal;
  Cluster c(cfg);
  EXPECT_EQ(c.effective_threads(), threads);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    c.rpc().register_method(
        i, kEcho, [](net::NodeId, std::any req, proto::RpcLayer::ReplyFn f) {
          f(256, std::move(req));
        });
  }
  auto issue = std::make_shared<std::function<void(std::uint32_t)>>();
  *issue = [&c, issue](std::uint32_t i) {
    if (c.network().engine_for(i).now() >= kEnd) return;
    c.rpc().call(i, (i + kNodes / 2) % kNodes, kEcho, 256, std::any{},
                 [&c, issue, i](std::any) {
                   c.network().engine_for(i).schedule_in(
                       (20 + i % 7) * sim::kMicrosecond, [issue, i] {
                         if (*issue) (*issue)(i);
                       });
                 });
  };
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    c.network().engine_for(i).schedule_at(i * 13 * sim::kMicrosecond,
                                          [issue, i] { (*issue)(i); });
  }
  // An odd period keeps ticks off the instants node events land on, where
  // the serial engine (tick after same-instant events) and the partitioned
  // one (global event first at a tie) would legitimately differ.
  Sampler sampler(c.engine(), c.metrics(), sim::kMillisecond + 7);
  for (const char* path : {"net.packets_sent", "net.packets_delivered",
                           "am.sent", "am.handled", "am.acks"}) {
    sampler.watch(path);
  }
  sampler.start();
  c.run_until(kEnd + 3 * sim::kMillisecond);
  sampler.stop();
  *issue = nullptr;
  EXPECT_EQ(reg.find<std::uint64_t>("am.sent"), c.am().stats().sent);
  std::ostringstream os;
  sampler.dump_csv(os);
  return os.str();
}

TEST(Sampler, PartitionedClusterTimelineMatchesSerial) {
  const std::string serial = sample_echo_cluster(1);
  EXPECT_EQ(sample_echo_cluster(2), serial);
  EXPECT_GT(serial.size(), 200u);
}

// --- Tracer -------------------------------------------------------------

TEST(Tracer, SpanNestingRecordsContainedIntervals) {
  Tracer& t = tracer();
  t.clear();
  t.enable(1024);
  sim::Engine engine;
  t.set_clock(&engine);
  const TrackId track = t.track("test");

  engine.schedule_at(1 * sim::kMillisecond, [&] {
    Span outer(3, track, "outer");
    {
      Span inner(3, track, "inner");
      engine.schedule_in(0, [] {});  // same-instant noop
    }  // inner closes here, at the same sim time it opened
    outer.end();
  });
  engine.schedule_at(2 * sim::kMillisecond, [] {});
  engine.run();

  // Two spans recorded: inner first (it closed first), both at t=1ms.
  ASSERT_EQ(t.size(), 2u);
  std::ostringstream os;
  t.export_chrome_json(os);
  const std::string json = os.str();
  const auto inner_at = json.find("\"inner\"");
  const auto outer_at = json.find("\"outer\"");
  ASSERT_NE(inner_at, std::string::npos);
  ASSERT_NE(outer_at, std::string::npos);
  EXPECT_LT(inner_at, outer_at);
  t.disable();
  t.set_clock(nullptr);
}

TEST(Tracer, ExportedJsonHasCompleteEventsAndMetadata) {
  Tracer& t = tracer();
  t.clear();
  t.enable(1024);
  const TrackId net = t.track("net");
  t.complete(/*node=*/7, net, "pkt", 1'000, 251'000);  // 0.25 ms span
  t.instant_at(/*node=*/7, net, "drop", 500'000);

  std::ostringstream os;
  t.export_chrome_json(os);
  const std::string json = os.str();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Process metadata names the node row, thread metadata the module track.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("node 7"), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  // The span: phase X, microsecond timestamps (1000 ns = 1 us, no
  // fractional digits when the remainder is zero).
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 1,"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 250,"), std::string::npos);
  // The instant: phase i.
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);

  // Structural validity: balanced braces/brackets, no trailing comma.
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(json.find(",]"), std::string::npos);
  EXPECT_EQ(json.find(",}"), std::string::npos);
  t.disable();
}

// A node's disk records its spans on that node's row (pid = node id), not
// on the cluster row.
TEST(Tracer, DiskSpansRecordOnTheOwningNode) {
  Tracer& t = tracer();
  t.clear();
  t.enable(1024);
  sim::Engine engine;
  t.set_clock(&engine);
  os::Node node(engine, /*id=*/5, os::NodeParams{});
  node.disk().read(0, 8192, [] {});
  engine.run();

  std::ostringstream os;
  t.export_chrome_json(os);
  const std::string json = os.str();
  const auto read_at = json.find("\"disk.read\"");
  ASSERT_NE(read_at, std::string::npos);
  const auto pid_at = json.find("\"pid\": ", read_at);
  ASSERT_NE(pid_at, std::string::npos);
  const std::string want = "\"pid\": 5,";
  EXPECT_EQ(json.compare(pid_at, want.size(), want), 0)
      << json.substr(read_at, 120);
  t.disable();
  t.set_clock(nullptr);
}

TEST(Tracer, RingOverwritesOldestAndCountsDrops) {
  Tracer& t = tracer();
  t.clear();
  t.enable(/*capacity=*/4);
  const TrackId track = t.track("ring");
  for (int i = 0; i < 10; ++i) {
    std::string name = "e";
    name += std::to_string(i);
    t.instant_at(0, track, name, i * 1'000);
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  std::ostringstream os;
  t.export_chrome_json(os);
  const std::string json = os.str();
  // Only the newest four survive, oldest-first in the export.
  EXPECT_EQ(json.find("\"e5\""), std::string::npos);
  ASSERT_NE(json.find("\"e6\""), std::string::npos);
  EXPECT_LT(json.find("\"e6\""), json.find("\"e9\""));
  t.disable();
}

TEST(Tracer, NothingRecordedWhileDisabled) {
  Tracer& t = tracer();
  t.clear();
  EXPECT_FALSE(t.enabled());
  t.instant_at(0, t.track("off"), "ignored", 1'000);
  EXPECT_EQ(t.size(), 0u);
}

// --- Sampler ------------------------------------------------------------

TEST(Sampler, SnapshotsWatchedInstrumentsEveryPeriod) {
  sim::Engine engine;
  MetricsRegistry reg;
  ScopedMetrics scope(reg);
  std::uint64_t sent = 0;
  const Collector net("net", [&](Sink& s) { s.counter("sent", sent); });
  Sampler sampler(engine, reg, 10 * sim::kMillisecond);
  sampler.watch("net.sent");
  sampler.watch("unregistered.path");  // samples as 0
  sampler.start();

  // +1 at t=5ms, +2 at t=15ms, +4 at t=25ms.
  engine.schedule_at(5 * sim::kMillisecond, [&] { sent += 1; });
  engine.schedule_at(15 * sim::kMillisecond, [&] { sent += 2; });
  engine.schedule_at(25 * sim::kMillisecond, [&] { sent += 4; });
  // Note 35 ms, not 30: a stop at exactly 30 ms (priority 0) would run
  // before — and cancel — the 30 ms sample (priority +1).
  engine.schedule_at(35 * sim::kMillisecond, [&] { sampler.stop(); });
  engine.run();

  ASSERT_EQ(sampler.rows(), 3u);
  std::ostringstream os;
  sampler.dump_csv(os);
  const std::string csv = os.str();
  std::istringstream lines(csv);
  std::string header, r1, r2, r3;
  std::getline(lines, header);
  std::getline(lines, r1);
  std::getline(lines, r2);
  std::getline(lines, r3);
  EXPECT_EQ(header, "time_ms,net.sent,unregistered.path");
  EXPECT_EQ(r1, "10,1,0");
  EXPECT_EQ(r2, "20,3,0");
  EXPECT_EQ(r3, "30,7,0");
}

}  // namespace
}  // namespace now::obs
