// Tests for the synthetic trace generators and the trace file formats
// (written by trace_io, read back through the replay cursors).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "replay/cursor.hpp"
#include "trace/fs_trace.hpp"
#include "trace/nfs_trace.hpp"
#include "trace/parallel_trace.hpp"
#include "trace/trace_io.hpp"
#include "trace/usage_trace.hpp"

namespace now::trace {
namespace {

// Reads every record of a trace file through one of the replay cursors.
template <typename Cursor>
auto read_all(std::istream& in) {
  Cursor cur(in);
  std::vector<typename decltype(cur.next())::value_type> out;
  while (auto r = cur.next()) out.push_back(*r);
  return out;
}

TEST(FsTrace, VolumeAndOrdering) {
  FsWorkloadParams p;
  p.clients = 5;
  p.accesses_per_client = 1'000;
  const auto t = generate_fs_trace(p);
  // Activity is skewed: heavy clients issue the full count, light clients a
  // small fraction, so total volume lies between the two extremes.
  EXPECT_GE(t.size(),
            static_cast<std::size_t>(5 * 1000 * p.light_activity_scale));
  EXPECT_LE(t.size(), 5'000u);
  EXPECT_TRUE(std::is_sorted(t.begin(), t.end(),
                             [](const FsAccess& a, const FsAccess& b) {
                               return a.at < b.at;
                             }));
}

TEST(FsTrace, PrivateBlocksAreDisjointPerClient) {
  FsWorkloadParams p;
  p.clients = 4;
  p.accesses_per_client = 2'000;
  const auto t = generate_fs_trace(p);
  for (const auto& a : t) {
    if (a.block < p.shared_blocks) continue;  // shared pool
    const auto owner = (a.block - p.shared_blocks) / p.private_blocks;
    EXPECT_EQ(owner, a.client);
  }
}

TEST(FsTrace, SharedBlocksAreAccessedByManyClients) {
  FsWorkloadParams p;
  p.clients = 8;
  p.accesses_per_client = 4'000;
  const auto t = generate_fs_trace(p);
  // The hottest shared block should be touched by most clients.
  std::vector<std::uint64_t> count_per_client(p.clients, 0);
  std::vector<std::uint32_t> clients_on_block0;
  for (const auto& a : t) {
    if (a.block < p.shared_blocks) ++count_per_client[a.client];
  }
  for (const auto c : count_per_client) EXPECT_GT(c, 0u);
}

TEST(FsTrace, WriteFractionApproximatelyHonored) {
  FsWorkloadParams p;
  p.clients = 4;
  p.accesses_per_client = 10'000;
  p.write_fraction = 0.2;
  const auto t = generate_fs_trace(p);
  const auto writes = std::count_if(t.begin(), t.end(),
                                    [](const FsAccess& a) {
                                      return a.is_write;
                                    });
  EXPECT_NEAR(static_cast<double>(writes) / t.size(), 0.2, 0.02);
}

TEST(FsTrace, DeterministicForSeed) {
  FsWorkloadParams p;
  p.clients = 3;
  p.accesses_per_client = 500;
  const auto a = generate_fs_trace(p);
  const auto b = generate_fs_trace(p);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].block, b[i].block);
    EXPECT_EQ(a[i].client, b[i].client);
  }
}

TEST(UsageTraceTest, MostWorkstationsFullyIdleDuringTheDay) {
  // The paper: "more than 60 percent of workstations were available 100
  // percent of the time" even in daytime.
  UsageParams p;
  p.seed = 7;
  const UsageTrace t(p);
  EXPECT_GT(t.fraction_always_idle(), 0.40);
  EXPECT_GT(t.average_idle_fraction(2 * sim::kMinute), 0.60);
}

TEST(UsageTraceTest, BusyQueriesMatchIntervals) {
  UsageParams p;
  p.workstations = 10;
  p.seed = 3;
  const UsageTrace t(p);
  for (std::uint32_t n = 0; n < 10; ++n) {
    for (const auto& b : t.intervals(n)) {
      EXPECT_TRUE(t.busy(n, b.begin));
      EXPECT_TRUE(t.busy(n, (b.begin + b.end) / 2));
      EXPECT_FALSE(t.busy(n, b.end));  // half-open interval
    }
  }
}

TEST(UsageTraceTest, IdleThroughSeesUpcomingActivity) {
  UsageParams p;
  p.workstations = 30;
  p.seed = 11;
  const UsageTrace t(p);
  bool checked = false;
  for (std::uint32_t n = 0; n < p.workstations && !checked; ++n) {
    const auto& v = t.intervals(n);
    if (v.empty()) continue;
    const auto& b = v.front();
    if (b.begin > 2 * sim::kMinute) {
      EXPECT_FALSE(t.idle_through(n, b.begin - sim::kMinute,
                                  2 * sim::kMinute));
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
}

TEST(ParallelTrace, JobsFitThePartition) {
  ParallelJobParams p;
  p.seed = 5;
  const auto jobs = generate_parallel_jobs(p);
  ASSERT_GT(jobs.size(), 10u);
  for (const auto& j : jobs) {
    EXPECT_LE(j.width, p.partition);
    EXPECT_GE(j.width, 4u);
    EXPECT_GT(j.work, 0);
    EXPECT_LT(j.arrival, p.duration);
  }
  EXPECT_TRUE(std::is_sorted(jobs.begin(), jobs.end(),
                             [](const ParallelJob& a, const ParallelJob& b) {
                               return a.arrival < b.arrival;
                             }));
}

TEST(ParallelTrace, MixOfDevelopmentAndProduction) {
  ParallelJobParams p;
  p.duration = 48 * sim::kHour;
  const auto jobs = generate_parallel_jobs(p);
  const auto dev = std::count_if(jobs.begin(), jobs.end(),
                                 [](const ParallelJob& j) {
                                   return j.development;
                                 });
  EXPECT_GT(dev, 0);
  EXPECT_LT(static_cast<std::size_t>(dev), jobs.size());
  // Production runs dominate processor-seconds.
  double dev_ps = 0, prod_ps = 0;
  for (const auto& j : jobs) {
    (j.development ? dev_ps : prod_ps) += sim::to_sec(j.work) * j.width;
  }
  EXPECT_GT(prod_ps, dev_ps);
}

TEST(ParallelTrace, DemandIsModerateForOverlayStudy) {
  // Figure 3 needs an MPP workload that a 32-node partition can serve:
  // offered load below capacity.
  ParallelJobParams p;
  const auto jobs = generate_parallel_jobs(p);
  const double capacity = sim::to_sec(p.duration) * p.partition;
  EXPECT_LT(total_processor_seconds(jobs), capacity);
  EXPECT_GT(total_processor_seconds(jobs), capacity * 0.1);
}

TEST(TraceIo, FsTraceRoundTrips) {
  FsWorkloadParams p;
  p.clients = 3;
  p.accesses_per_client = 400;
  const auto original = generate_fs_trace(p);
  std::stringstream buf;
  write_fs_trace(buf, original);
  const auto loaded = read_all<replay::FsTraceCursor>(buf);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].client, original[i].client);
    EXPECT_EQ(loaded[i].block, original[i].block);
    EXPECT_EQ(loaded[i].is_write, original[i].is_write);
    EXPECT_NEAR(sim::to_us(loaded[i].at), sim::to_us(original[i].at), 1.0);
  }
}

TEST(TraceIo, UsageTraceRoundTrips) {
  UsageParams p;
  p.workstations = 6;
  p.seed = 2;
  const UsageTrace original(p);
  std::stringstream buf;
  write_usage_trace(buf, original);
  const auto rows = read_all<replay::UsageIntervalCursor>(buf);
  std::size_t k = 0;
  for (std::uint32_t n = 0; n < p.workstations; ++n) {
    for (const BusyInterval& b : original.intervals(n)) {
      ASSERT_LT(k, rows.size());
      EXPECT_EQ(rows[k].node, n);
      EXPECT_NEAR(sim::to_us(rows[k].interval.begin), sim::to_us(b.begin),
                  1.0);
      ++k;
    }
  }
  EXPECT_EQ(k, rows.size());
}

TEST(TraceIo, ParallelJobsRoundTrip) {
  ParallelJobParams p;
  p.seed = 3;
  const auto original = generate_parallel_jobs(p);
  std::stringstream buf;
  write_parallel_jobs(buf, original);
  const auto loaded = read_all<replay::ParallelJobCursor>(buf);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].width, original[i].width);
    EXPECT_EQ(loaded[i].development, original[i].development);
  }
}

TEST(TraceIo, CommentsAndBlanksAreSkipped) {
  std::stringstream buf;
  buf << "# a comment\n\n  \n100.5 2 77 w\n# another\n200 0 1 r\n";
  const auto loaded = read_all<replay::FsTraceCursor>(buf);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].client, 2u);
  EXPECT_TRUE(loaded[0].is_write);
  EXPECT_FALSE(loaded[1].is_write);
}

TEST(TraceIo, MalformedLinesThrowWithLineNumber) {
  std::stringstream buf;
  buf << "100 2 77 w\nnot a record\n";
  try {
    read_all<replay::FsTraceCursor>(buf);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(TraceIo, BadIntervalOrderingRejected) {
  std::stringstream buf;
  buf << "0 500 100\n";  // end before begin
  EXPECT_THROW(read_all<replay::UsageIntervalCursor>(buf), std::runtime_error);
}

TEST(TraceIo, TruncatedFsLineCitesLineNumber) {
  std::stringstream buf;
  buf << "# header\n100 2 77 w\n200 3 12\n";  // missing the r|w field
  try {
    read_all<replay::FsTraceCursor>(buf);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, OutOfOrderFsTimestampsRejected) {
  std::stringstream buf;
  buf << "200 0 1 r\n100 0 2 r\n";  // time runs backwards
  try {
    read_all<replay::FsTraceCursor>(buf);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("out-of-order"), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
}

TEST(TraceIo, ExtraFsFieldsRejected) {
  std::stringstream buf;
  buf << "100 2 77 w trailing-garbage\n";
  EXPECT_THROW(read_all<replay::FsTraceCursor>(buf), std::runtime_error);
}

TEST(TraceIo, TruncatedIntervalLineCitesLineNumber) {
  std::stringstream buf;
  buf << "0 100 500\n1 600\n";  // missing end_us
  try {
    read_all<replay::UsageIntervalCursor>(buf);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, MalformedParallelJobCitesLineNumber) {
  std::stringstream buf;
  buf << "100 8 5000 p\n200 0 5000 p\n";  // zero-width job
  try {
    read_all<replay::ParallelJobCursor>(buf);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, OutOfOrderParallelArrivalsRejected) {
  std::stringstream buf;
  buf << "500 8 1000 p\n100 4 1000 d\n";
  try {
    read_all<replay::ParallelJobCursor>(buf);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("out-of-order"), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
}

TEST(TraceIo, UnknownParallelJobKindRejected) {
  std::stringstream buf;
  buf << "100 8 5000 x\n";  // kind must be p or d
  EXPECT_THROW(read_all<replay::ParallelJobCursor>(buf), std::runtime_error);
}

TEST(NfsTrace, NinetyFivePercentUnder200Bytes) {
  NfsWorkloadParams p;
  const auto msgs = generate_nfs_messages(p);
  EXPECT_NEAR(fraction_below(msgs, 201), 0.95, 0.01);
}

TEST(NfsTrace, BandwidthUpgradeAloneBarelyHelps) {
  // The paper's arithmetic: an 8x bandwidth upgrade cuts only the per-byte
  // term; with overhead dominating, the overall win is ~20 %.
  NfsWorkloadParams p;
  const auto msgs = generate_nfs_messages(p);
  const double ethernet_us_per_byte = 8.0 / 10.0;  // 10 Mb/s
  const double atm_us_per_byte = 8.0 / 78.0;       // delivered TCP rate
  const double overhead_us = 456;
  const double before = total_time_us(msgs, overhead_us,
                                      ethernet_us_per_byte);
  const double after = total_time_us(msgs, overhead_us, atm_us_per_byte);
  const double improvement = 1.0 - after / before;
  EXPECT_GT(improvement, 0.10);
  EXPECT_LT(improvement, 0.35);
}

}  // namespace
}  // namespace now::trace
