// Tests for now::replay — streaming cursors, format adapters, replay
// drivers, the profiler, and the ServeWorkload replay arrival source.
#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "replay/cursor.hpp"
#include "replay/driver.hpp"
#include "replay/profile.hpp"
#include "serve/workload.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "trace/fs_trace.hpp"
#include "xfs/central_server.hpp"

namespace now::replay {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---------------------------------------------------------------------------
// LineCursor

TEST(LineCursor, YieldsContentLinesWithNumbers) {
  std::istringstream in("# comment\n\nalpha\r\n  \nbeta\ngamma");
  LineCursor lc(in);
  auto l = lc.next();
  ASSERT_TRUE(l);
  EXPECT_EQ(*l, "alpha");  // '\r' stripped
  EXPECT_EQ(lc.line_number(), 3u);
  l = lc.next();
  ASSERT_TRUE(l);
  EXPECT_EQ(*l, "beta");
  EXPECT_EQ(lc.line_number(), 5u);
  l = lc.next();
  ASSERT_TRUE(l);
  EXPECT_EQ(*l, "gamma");  // final line without trailing newline
  EXPECT_EQ(lc.line_number(), 6u);
  EXPECT_FALSE(lc.next());
}

TEST(LineCursor, LineLongerThanWindowIsAHardError) {
  std::string text = "short\n";
  text.append(300, 'x');
  text += '\n';
  std::istringstream in(text);
  LineCursor lc(in, 64);
  ASSERT_TRUE(lc.next());
  try {
    lc.next();
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("window"), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
}

// The bounded-memory acceptance criterion: a trace far larger than the
// window replays completely while the reader's footprint stays exactly
// the window it was constructed with.
TEST(LineCursor, MemoryStaysAtWindowForTracesMuchLargerThanIt) {
  constexpr std::size_t kWindow = 4'096;
  std::ostringstream big;
  const std::uint64_t kRecords = 200'000;  // ~4 MB of text, 1000x window
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    big << i * 10 << " " << i % 42 << " " << i % 7'000 << " "
        << (i % 5 == 0 ? 'w' : 'r') << "\n";
  }
  std::istringstream in(big.str());
  ASSERT_GT(in.str().size(), 500 * kWindow);
  CursorOptions opt;
  opt.window_bytes = kWindow;
  FsTraceCursor cur(in, opt);
  std::uint64_t n = 0;
  while (auto a = cur.next()) {
    ++n;
    EXPECT_EQ(cur.window_bytes(), kWindow);  // never grows
  }
  EXPECT_EQ(n, kRecords);
}

// ---------------------------------------------------------------------------
// NFS adapter

const char* kNfsSample =
    "# ts client op fh offset bytes\n"
    "1.000000 ws01 getattr fhAA 0 0\n"
    "1.000100 ws02 read fhAA 16384 8192\n"
    "1.000200 ws01 write fhBB 0 8192\n"
    "1.000300 ws03 lookup fhCC 0 0\n"
    "1.000400 ws02 create fhDD 0 0\n"
    "1.000500 ws01 read fhAA 9999999999 8192\n";

TEST(NfsTraceCursor, ParsesAndAssignsDenseIds) {
  std::istringstream in(kNfsSample);
  NfsTraceCursor cur(in);
  std::vector<NfsRecord> recs;
  while (auto r = cur.next()) recs.push_back(*r);
  ASSERT_EQ(recs.size(), 6u);
  // First-seen order: ws01 -> 0, ws02 -> 1, ws03 -> 2.
  EXPECT_EQ(recs[0].client, 0u);
  EXPECT_EQ(recs[1].client, 1u);
  EXPECT_EQ(recs[3].client, 2u);
  EXPECT_EQ(recs[5].client, 0u);
  // fhAA -> 0, fhBB -> 1, fhCC -> 2, fhDD -> 3.
  EXPECT_EQ(recs[0].fh, 0u);
  EXPECT_EQ(recs[2].fh, 1u);
  EXPECT_EQ(recs[4].fh, 3u);
  EXPECT_EQ(cur.distinct_clients(), 3u);
  EXPECT_EQ(cur.distinct_fhs(), 4u);
  EXPECT_EQ(recs[0].op, NfsOp::kGetattr);
  EXPECT_EQ(recs[1].op, NfsOp::kRead);
  EXPECT_EQ(recs[1].bytes, 8'192u);
  EXPECT_EQ(recs[1].offset, 16'384u);
}

TEST(NfsFsCursor, AppliesTheOpTable) {
  std::istringstream in(kNfsSample);
  NfsFsCursor cur(in);  // 8 KB blocks, 256 blocks per file handle
  std::vector<trace::FsAccess> recs;
  while (auto a = cur.next()) recs.push_back(*a);
  ASSERT_EQ(recs.size(), 6u);
  // getattr fhAA (fh 0): metadata read of the inode block.
  EXPECT_FALSE(recs[0].is_write);
  EXPECT_EQ(recs[0].block, 0u);
  // read fhAA offset 16384: data block 0*256 + 16384/8192 = 2.
  EXPECT_FALSE(recs[1].is_write);
  EXPECT_EQ(recs[1].block, 2u);
  // write fhBB (fh 1) offset 0: data block 1*256 + 0.
  EXPECT_TRUE(recs[2].is_write);
  EXPECT_EQ(recs[2].block, 256u);
  // lookup fhCC (fh 2): metadata read of inode block 2*256.
  EXPECT_FALSE(recs[3].is_write);
  EXPECT_EQ(recs[3].block, 512u);
  // create fhDD (fh 3): metadata *write* of inode block 3*256.
  EXPECT_TRUE(recs[4].is_write);
  EXPECT_EQ(recs[4].block, 768u);
  // read past the per-file span clamps to the last block (0*256 + 255).
  EXPECT_EQ(recs[5].block, 255u);
}

TEST(NfsTraceCursor, UnknownOpCitesTheLine) {
  std::istringstream in("1.0 ws01 getattr fhAA 0 0\n1.1 ws01 frobnicate fhAA 0 0\n");
  NfsTraceCursor cur(in);
  ASSERT_TRUE(cur.next());
  try {
    cur.next();
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown NFS op 'frobnicate'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
}

TEST(NfsTraceCursor, OutOfOrderTimestampsRejected) {
  std::istringstream in("2.0 ws01 read fhAA 0 8192\n1.0 ws01 read fhAA 0 8192\n");
  NfsTraceCursor cur(in);
  ASSERT_TRUE(cur.next());
  EXPECT_THROW(cur.next(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Field rules, the timestamp rule and a seeded mutation test

/// Everything a cursor makes of one line of a document: the record, no
/// record (a blank or comment line, or EOF), or the parse error's text.
template <typename Record>
struct Outcome {
  std::optional<Record> record;
  std::string error;
};

/// Reads every record of `text`, then returns what the cursor made of the
/// line after them.  The records before it must all parse.
template <typename Cursor>
auto last_outcome(const std::string& text, std::size_t records_before) {
  std::istringstream in(text);
  CursorOptions opt;
  opt.window_bytes = 1'024;  // test lines are short
  Cursor cur(in, opt);
  Outcome<typename decltype(cur.next())::value_type> out;
  for (std::size_t i = 0; i < records_before; ++i) {
    if (!cur.next()) {
      out.error = "a record before the last line was missing";
      return out;
    }
  }
  try {
    out.record = cur.next();
  } catch (const std::runtime_error& e) {
    out.error = e.what();
  }
  return out;
}

TEST(FsTraceCursor, AppliesTheFieldRules) {
  struct Case {
    const char* line;
    bool accepted;
    trace::FsAccess expect;  // at, client, block, is_write
  };
  const Case cases[] = {
      {"100 1 2 r", true, {sim::from_us(100), 1, 2, false}},
      {"2.5 7 99 w", true, {sim::from_us(2.5), 7, 99, true}},
      {"1e3 1 2 r", true, {sim::from_us(1000), 1, 2, false}},
      {"100\t1\t2\tw", true, {sim::from_us(100), 1, 2, true}},
      {"   100  1 \t 2 r", true, {sim::from_us(100), 1, 2, false}},
      {"100 1 2 r \t ", true, {sim::from_us(100), 1, 2, false}},
      {"100 1 2 r\r", true, {sim::from_us(100), 1, 2, false}},
      {"007 0 0 r", true, {sim::from_us(7), 0, 0, false}},
      {"100 1 2", false, {}},                       // missing field
      {"100 1 2 r extra", false, {}},               // extra field
      {"100 1 2 rw", false, {}},                    // two-letter op
      {"100 1 2 x", false, {}},                     // unknown op
      {"100 1 2 R", false, {}},                     // ops are lower case
      {"100 1 2 r#", false, {}},                    // no trailing comment
      {"100 -1 2 r", false, {}},                    // negative client
      {"100 1 -2 r", false, {}},                    // negative block
      {"100 0x1 2 r", false, {}},                   // hex client
      {"0x64 1 2 r", false, {}},                    // hex time
      {"+100 1 2 r", false, {}},                    // '+' on the time
      {"100 +1 2 r", false, {}},                    // '+' on the client
      {"100 4294967296 2 r", false, {}},            // client overflows
      {"100 1 18446744073709551616 r", false, {}},  // block overflows
      {"100 1.5 2 r", false, {}},                   // fractional client
      {"100us 1 2 r", false, {}},                   // unit suffix
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.line);
    const auto out =
        last_outcome<FsTraceCursor>(std::string("0 0 0 r\n") + c.line, 1);
    if (c.accepted) {
      ASSERT_TRUE(out.record) << out.error;
      EXPECT_EQ(out.record->at, c.expect.at);
      EXPECT_EQ(out.record->client, c.expect.client);
      EXPECT_EQ(out.record->block, c.expect.block);
      EXPECT_EQ(out.record->is_write, c.expect.is_write);
    } else {
      EXPECT_FALSE(out.record);
      EXPECT_TRUE(out.error.ends_with("(fs access) at line 2")) << out.error;
    }
  }
  // Comments and blank lines are skipped wherever they start.
  for (const char* skipped : {"# 100 1 2 r", "  \t# note", "", " \t ", "\r"}) {
    SCOPED_TRACE(skipped);
    const auto out =
        last_outcome<FsTraceCursor>(std::string("0 0 0 r\n") + skipped, 1);
    EXPECT_FALSE(out.record);
    EXPECT_EQ(out.error, "");
  }
}

// Times that are not finite, are negative or overflow a SimTime are parse
// errors, in every timestamped format; the largest time that fits parses.
const char* const kBadTimes[] = {"inf",   "-inf",   "infinity", "nan",
                                 "-nan",  "1e300",  "-5",       "-0.001",
                                 "1e400", "9.3e15"};

TEST(FsTraceCursor, RejectsNonFiniteAndNegativeTimes) {
  for (const char* t : kBadTimes) {
    SCOPED_TRACE(t);
    const auto out = last_outcome<FsTraceCursor>(
        std::string("# header\n") + t + " 1 2 r\n", 0);
    EXPECT_FALSE(out.record);
    EXPECT_TRUE(out.error.ends_with("(fs access) at line 2")) << out.error;
  }
  const auto out = last_outcome<FsTraceCursor>("9.2e15 1 2 r\n", 0);
  ASSERT_TRUE(out.record) << out.error;
  EXPECT_EQ(out.record->at, sim::from_us(9.2e15));
}

TEST(NfsTraceCursor, RejectsNonFiniteAndNegativeTimes) {
  // Seconds: 1e10 s is past the SimTime range, 9e9 s is inside it.
  for (const char* t : {"inf", "-inf", "nan", "1e300", "-5", "1e10"}) {
    SCOPED_TRACE(t);
    const auto out = last_outcome<NfsTraceCursor>(
        std::string("# header\n") + t + " ws01 read fhAA 0 8192\n", 0);
    EXPECT_FALSE(out.record);
    EXPECT_TRUE(out.error.ends_with("(nfs record) at line 2")) << out.error;
  }
  const auto out =
      last_outcome<NfsTraceCursor>("9e9 ws01 read fhAA 0 8192\n", 0);
  ASSERT_TRUE(out.record) << out.error;
  EXPECT_EQ(out.record->at, sim::from_sec(9e9));
}

TEST(ParallelJobCursor, RejectsNonFiniteAndNegativeTimes) {
  for (const char* t : kBadTimes) {
    SCOPED_TRACE(t);
    for (const std::string& line :
         {std::string(t) + " 8 5000 p", "100 8 " + std::string(t) + " p"}) {
      const auto out =
          last_outcome<ParallelJobCursor>("# header\n" + line + "\n", 0);
      EXPECT_FALSE(out.record);
      EXPECT_TRUE(out.error.ends_with("(parallel job) at line 2"))
          << out.error;
    }
  }
}

TEST(UsageIntervalCursor, RejectsNonFiniteAndNegativeTimes) {
  for (const char* t : kBadTimes) {
    SCOPED_TRACE(t);
    for (const std::string& line :
         {"0 " + std::string(t) + " 500", "0 100 " + std::string(t),
          "0 " + std::string(t) + " " + t}) {
      const auto out =
          last_outcome<UsageIntervalCursor>("# header\n" + line + "\n", 0);
      EXPECT_FALSE(out.record);
      EXPECT_TRUE(out.error.ends_with("(busy interval) at line 2"))
          << out.error;
    }
  }
}

/// The fs line rules of the original split-then-parse reader, kept here as
/// the reference the cursor must match: at most one trailing '\r' dropped,
/// blank and '#' lines skipped, exactly four space- or tab-separated
/// fields, each number spanning its whole field, plus the timestamp rule.
/// nullopt with `*skipped` false is a rejection.
std::optional<trace::FsAccess> reference_fs_line(std::string_view line,
                                                 bool* skipped) {
  *skipped = false;
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  const std::size_t first = line.find_first_not_of(" \t");
  if (first == std::string_view::npos || line[first] == '#') {
    *skipped = true;
    return std::nullopt;
  }
  std::vector<std::string_view> f;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i == line.size()) break;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    f.push_back(line.substr(start, i - start));
  }
  const auto whole = [](std::string_view s, auto* out) {
    const auto r = std::from_chars(s.data(), s.data() + s.size(), *out);
    return r.ec == std::errc{} && r.ptr == s.data() + s.size();
  };
  double time_us = 0;
  trace::FsAccess a;
  if (f.size() != 4 || !whole(f[0], &time_us) || !whole(f[1], &a.client) ||
      !whole(f[2], &a.block) || (f[3] != "r" && f[3] != "w")) {
    return std::nullopt;
  }
  if (!std::isfinite(time_us) || time_us < 0 ||
      time_us * 1e3 >= std::ldexp(1.0, 63)) {
    return std::nullopt;
  }
  a.at = sim::from_us(time_us);
  a.is_write = f[3] == "w";
  return a;
}

/// Applies one to three random edits to a valid line: a byte replaced,
/// inserted or deleted, or a whole field replaced, dropped, doubled or
/// swapped.  Never adds a newline, so the line stays one line.
std::string mutate(std::string line, sim::Pcg32& rng) {
  static const char kBytes[] = "0123456789 \t-+.eExXpPinfaI#rwdR\r\x7f\xff,_";
  static const char* const kTokens[] = {
      "inf", "-inf", "nan", "1e300", "-5", "-0", "0", "+1", "0x10", "1e-400",
      "4294967296", "18446744073709551616", "9.3e15", "r", "w", "rw", "x",
      "p", "d", "read", "getattr", "frob", "#", "1.5", "007", "\r"};
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint32_t>(n)));
  };
  const std::size_t edits = 1 + pick(3);
  for (std::size_t e = 0; e < edits; ++e) {
    std::vector<std::string> fields;
    std::istringstream split(line);
    for (std::string t; split >> t;) fields.push_back(t);
    const std::size_t kind = pick(7);
    if (kind <= 2 || fields.empty()) {
      const char byte = kBytes[pick(sizeof kBytes - 1)];
      const std::size_t at = pick(line.size() + 1);
      if (kind == 0 && at < line.size()) {
        line[at] = byte;
      } else if (kind == 1 || at == line.size()) {
        line.insert(line.begin() + static_cast<std::ptrdiff_t>(at), byte);
      } else {
        line.erase(at, 1);
      }
      continue;
    }
    const std::size_t i = pick(fields.size());
    const std::size_t j = pick(fields.size());
    const auto at = fields.begin() + static_cast<std::ptrdiff_t>(i);
    if (kind == 3) {
      *at = kTokens[pick(std::size(kTokens))];
    } else if (kind == 4) {
      fields.erase(at);
    } else if (kind == 5) {
      fields.insert(at, std::string(fields[j]));
    } else {
      std::swap(fields[i], fields[j]);
    }
    line.clear();
    for (const std::string& t : fields) line += (line.empty() ? "" : " ") + t;
  }
  return line;
}

/// A document of `kLead` valid records, a comment, then the line under
/// test; the line under test is line kLead + 2.
constexpr std::size_t kLead = 2;
constexpr int kMutations = 20'000;

std::string mutation_document(const char* const (&lead)[kLead],
                              const std::string& line) {
  std::string doc;
  for (const char* l : lead) doc += std::string(l) + "\n";
  return doc + "# the mutated line follows\n" + line + "\n";
}

TEST(FsTraceCursor, MutatedLinesMatchTheReferenceParser) {
  const char* const lead[kLead] = {"10 0 0 r", "20.5 1 1 w"};
  const sim::SimTime last = sim::from_us(20.5);
  sim::Pcg32 rng(19);
  std::uint64_t accepted = 0, rejected = 0;
  for (int n = 0; n < kMutations; ++n) {
    std::ostringstream valid;
    valid.precision(17);
    valid << 20.5 + rng.uniform(0.0, 1e7) << ' ' << rng.next_below(100) << ' '
          << rng.next_below(1'000'000) << ' ' << (rng.next_below(4) ? 'r' : 'w');
    const std::string line = mutate(valid.str(), rng);
    SCOPED_TRACE("line \"" + line + "\"");
    const auto out = last_outcome<FsTraceCursor>(
        mutation_document(lead, line), kLead);
    bool skipped = false;
    auto expect = reference_fs_line(line, &skipped);
    const bool reordered = expect && expect->at < last;
    if (reordered) expect.reset();
    if (expect) {
      ASSERT_TRUE(out.record) << out.error;
      EXPECT_EQ(out.record->at, expect->at);
      EXPECT_EQ(out.record->client, expect->client);
      EXPECT_EQ(out.record->block, expect->block);
      EXPECT_EQ(out.record->is_write, expect->is_write);
      ++accepted;
    } else if (skipped) {
      EXPECT_FALSE(out.record);
      EXPECT_EQ(out.error, "");
    } else {
      EXPECT_FALSE(out.record);
      EXPECT_TRUE(out.error.ends_with(reordered
                                           ? "(out-of-order timestamp) at line 4"
                                           : "(fs access) at line 4"))
          << out.error;
      ++rejected;
    }
  }
  // The edits must leave both outcomes common, or the test checks little.
  EXPECT_GT(accepted, kMutations / 20u);
  EXPECT_GT(rejected, kMutations / 4u);
}

/// Mutates valid lines of a format and checks that each input parses or
/// fails citing its own line; `check` vets every accepted record.
template <typename Cursor, typename MakeLine, typename Check>
void fuzz_format(const char* const (&lead)[kLead], MakeLine make_line,
                 Check check) {
  sim::Pcg32 rng(19);
  std::uint64_t accepted = 0;
  for (int n = 0; n < kMutations; ++n) {
    const std::string valid = make_line(rng);
    const std::string line = n == 0 ? valid : mutate(valid, rng);
    SCOPED_TRACE("line \"" + line + "\"");
    const auto out =
        last_outcome<Cursor>(mutation_document(lead, line), kLead);
    if (n == 0) {
      ASSERT_TRUE(out.record) << out.error;  // the generator is valid
    }
    if (out.record) {
      check(*out.record);
      ++accepted;
    } else if (!out.error.empty()) {
      EXPECT_TRUE(out.error.starts_with("trace parse error (")) << out.error;
      EXPECT_TRUE(out.error.ends_with(") at line 4")) << out.error;
    }
  }
  EXPECT_GT(accepted, kMutations / 20u);
}

TEST(ReplayParsers, MutatedLinesParseOrCiteTheirLine) {
  const auto us = [](sim::Pcg32& rng) {
    std::ostringstream t;
    t.precision(17);
    t << 100.0 + rng.uniform(0.0, 1e7);
    return t.str();
  };
  {
    SCOPED_TRACE("nfs");
    const char* const lead[kLead] = {"0.000010 ws00 getattr fh0 0 0",
                                     "0.000020 ws01 read fh1 8192 8192"};
    const char* const ops[] = {"read", "write", "getattr", "lookup", "create"};
    fuzz_format<NfsTraceCursor>(
        lead,
        [&](sim::Pcg32& rng) {
          std::ostringstream l;
          l.precision(17);
          l << 1e-4 + rng.uniform(0.0, 100.0) << " ws" << rng.next_below(20)
            << ' ' << ops[rng.next_below(5)] << " fh" << rng.next_below(500)
            << ' ' << 8192 * rng.next_below(64) << " 8192";
          return l.str();
        },
        [](const NfsRecord& r) {
          EXPECT_GE(r.at, sim::from_sec(2e-5));
          EXPECT_LE(r.client, 2u);  // at most one client beyond the lead's
          EXPECT_LE(r.fh, 2u);
        });
  }
  {
    SCOPED_TRACE("parallel job");
    const char* const lead[kLead] = {"10 8 5000 p", "20 4 100 d"};
    fuzz_format<ParallelJobCursor>(
        lead,
        [&](sim::Pcg32& rng) {
          std::ostringstream l;
          l << us(rng) << ' ' << (1u << rng.next_below(6)) << ' ' << us(rng)
            << ' ' << (rng.next_below(2) ? 'p' : 'd');
          return l.str();
        },
        [](const trace::ParallelJob& j) {
          EXPECT_GE(j.arrival, sim::from_us(20));
          EXPECT_GE(j.work, 0);
          EXPECT_GT(j.width, 0u);
        });
  }
  {
    SCOPED_TRACE("busy interval");
    const char* const lead[kLead] = {"0 10 20", "1 15 30"};
    fuzz_format<UsageIntervalCursor>(
        lead,
        [&](sim::Pcg32& rng) {
          const double begin = rng.uniform(0.0, 1e7);
          std::ostringstream l;
          l.precision(17);
          l << rng.next_below(64) << ' ' << begin << ' '
            << begin + rng.uniform(0.0, 1e6);
          return l.str();
        },
        [](const UsageIntervalCursor::Row& r) {
          EXPECT_GE(r.interval.begin, 0);
          EXPECT_GE(r.interval.end, r.interval.begin);
        });
  }
}

// ---------------------------------------------------------------------------
// File-level helpers

TEST(TraceFile, DetectsFormatAndOpens) {
  const std::string fs_path = temp_path("now_replay_detect_fs.trace");
  const std::string nfs_path = temp_path("now_replay_detect_nfs.trace");
  {
    std::ofstream f(fs_path);
    f << "# native\n100 0 7 r\n200 1 9 w\n";
    std::ofstream n(nfs_path);
    n << kNfsSample;
  }
  EXPECT_EQ(detect_format(fs_path), TraceFormat::kFs);
  EXPECT_EQ(detect_format(nfs_path), TraceFormat::kNfs);

  auto fs_cur = open_trace(fs_path);
  auto a = fs_cur->next();
  ASSERT_TRUE(a);
  EXPECT_EQ(a->block, 7u);
  auto nfs_cur = open_trace(nfs_path);
  std::uint64_t n = 0;
  while (nfs_cur->next()) ++n;
  EXPECT_EQ(n, 6u);

  const std::string bad = temp_path("now_replay_detect_bad.trace");
  {
    std::ofstream f(bad);
    f << "neither fish nor fowl\n";
  }
  EXPECT_THROW(detect_format(bad), std::runtime_error);
  EXPECT_THROW(detect_format(temp_path("now_replay_missing.trace")),
               std::runtime_error);
  std::remove(fs_path.c_str());
  std::remove(nfs_path.c_str());
  std::remove(bad.c_str());
}

TEST(TraceFile, StrideCursorsPartitionTheTrace) {
  const std::string path = temp_path("now_replay_stride.trace");
  {
    std::ofstream f(path);
    for (int i = 0; i < 30; ++i) {
      f << i * 100 << " " << i % 5 << " " << i << " r\n";
    }
  }
  std::uint64_t total = 0;
  for (std::uint32_t r = 0; r < 3; ++r) {
    ClientStrideCursor cur(open_trace(path), 3, r);
    while (auto a = cur.next()) {
      EXPECT_EQ(a->client, r);  // rewritten to the residue
      ++total;
    }
  }
  EXPECT_EQ(total, 30u);  // the three views cover the trace exactly
  std::remove(path.c_str());
}

TEST(TraceFile, SummarizeCountsInOnePass) {
  const std::string path = temp_path("now_replay_summary.trace");
  {
    std::ofstream f(path);
    f << "100 0 1 r\n200 3 2 w\n300 1 3 r\n";
  }
  const TraceSummary s = summarize(path);
  EXPECT_EQ(s.format, TraceFormat::kFs);
  EXPECT_EQ(s.records, 3u);
  EXPECT_EQ(s.clients, 4u);  // max id + 1
  EXPECT_EQ(s.first_at, sim::from_us(100));
  EXPECT_EQ(s.last_at, sim::from_us(300));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Replay drivers

TEST(OpenLoopReplay, HonorsRecordedScheduleAndTimeScale) {
  std::istringstream in("100 0 1 r\n300 0 2 r\n700 0 3 w\n");
  FsTraceCursor cur(in);
  sim::Engine eng;
  std::vector<sim::SimTime> at;
  OpenLoopReplay drv(eng, cur, 2.0, [&](const trace::FsAccess&,
                                        std::function<void()> done) {
    at.push_back(eng.now());
    eng.schedule_in(5 * sim::kMicrosecond, std::move(done));
  });
  drv.start();
  eng.run();
  ASSERT_EQ(at.size(), 3u);
  EXPECT_EQ(at[0], sim::from_us(50));  // recorded / 2
  EXPECT_EQ(at[1], sim::from_us(150));
  EXPECT_EQ(at[2], sim::from_us(350));
  EXPECT_EQ(drv.stats().issued, 3u);
  EXPECT_EQ(drv.stats().completed, 3u);
  EXPECT_EQ(drv.stats().late, 0u);
}

TEST(ClosedLoopReplay, KeepsConcurrencyOutstanding) {
  std::ostringstream buf;
  for (int i = 0; i < 10; ++i) buf << i * 1'000 << " 0 " << i << " r\n";
  std::istringstream in(buf.str());
  FsTraceCursor cur(in);
  sim::Engine eng;
  std::uint64_t in_flight = 0, max_in_flight = 0;
  ClosedLoopReplay drv(eng, cur, 2, [&](const trace::FsAccess&,
                                        std::function<void()> done) {
    ++in_flight;
    max_in_flight = std::max(max_in_flight, in_flight);
    eng.schedule_in(10 * sim::kMicrosecond, [&in_flight, done] {
      --in_flight;
      done();
    });
  });
  drv.start();
  eng.run();
  EXPECT_EQ(drv.stats().issued, 10u);
  EXPECT_EQ(drv.stats().completed, 10u);
  EXPECT_EQ(max_in_flight, 2u);  // never more than the concurrency
  // Ten 10 us ops over two slots: 50 us of simulated time, not 100.
  EXPECT_EQ(eng.now(), sim::from_us(50));
}

// ---------------------------------------------------------------------------
// Profiler

TEST(Profiler, MeasuresMixGapsAndPopularity) {
  const std::string path = temp_path("now_replay_profile.trace");
  {
    // 1000 records, every 4th a write, gaps of 100 us, block popularity
    // concentrated on block 0 (50 % of accesses).
    std::ofstream f(path);
    for (int i = 0; i < 1'000; ++i) {
      f << i * 100 << " " << i % 8 << " " << (i % 2 ? 1 + i % 100 : 0)
        << " " << (i % 4 == 3 ? 'w' : 'r') << "\n";
    }
  }
  const TraceProfile p = profile_trace(path);
  EXPECT_EQ(p.format, TraceFormat::kFs);
  EXPECT_EQ(p.records, 1'000u);
  EXPECT_EQ(p.clients, 8u);
  EXPECT_EQ(p.writes, 250u);
  EXPECT_EQ(p.reads, 750u);
  // Odd rows touch the 50 even blocks 2..100; even rows all hit block 0.
  EXPECT_EQ(p.distinct_blocks, 51u);
  EXPECT_NEAR(p.mean_gap_us, 100.0, 1.0);
  EXPECT_NEAR(p.top1_share, 0.5, 0.01);
  EXPECT_GT(p.zipf_s, 0.0);  // hot block 0 gives a positive skew fit
  const std::string text = format_profile(p);
  EXPECT_NE(text.find("records"), std::string::npos);
  EXPECT_NE(text.find("zipf_s"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Profiler, NfsOpMixIsCounted) {
  const std::string path = temp_path("now_replay_profile_nfs.trace");
  {
    std::ofstream f(path);
    f << kNfsSample;
  }
  const TraceProfile p = profile_trace(path);
  EXPECT_EQ(p.format, TraceFormat::kNfs);
  EXPECT_EQ(p.records, 6u);
  EXPECT_EQ(p.data_ops, 3u);
  EXPECT_EQ(p.meta_ops, 3u);
  EXPECT_EQ(p.op_counts[static_cast<std::size_t>(NfsOp::kRead)], 2u);
  EXPECT_EQ(p.op_counts[static_cast<std::size_t>(NfsOp::kGetattr)], 1u);
  EXPECT_NEAR(p.mean_data_bytes, 8'192.0, 0.1);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// ServeWorkload replay arrival source

std::string run_serve_replay(const std::string& path) {
  ClusterConfig cfg;
  cfg.workstations = 8;
  cfg.fabric = Fabric::kBuildingNow;
  cfg.building = net::building_now(2, 4, 2.0);
  cfg.with_glunix = false;
  cfg.seed = 7;
  Cluster c(cfg);

  xfs::CentralFsParams p;
  p.client_cache_blocks = 0;
  std::vector<os::Node*> fsc;
  for (std::uint32_t i = 1; i < 8; ++i) fsc.push_back(&c.node(i));
  xfs::CentralServerFs fs(c.rpc(), c.node(0), fsc, p);
  fs.prewarm(64);
  fs.start();

  serve::ServeConfig sc;
  sc.population.clients = 6;
  sc.population.open_fraction = 1.0;
  sc.population.offered_per_sec = 50.0;
  sc.population.horizon = sim::kSecond;
  serve::RequestClass rd;
  rd.name = "read";
  rd.op = serve::RequestOp::kFileRead;
  rd.slo = 25 * sim::kMillisecond;
  rd.working_set = 64;
  serve::RequestClass wr;
  wr.name = "write";
  wr.op = serve::RequestOp::kFileWrite;
  wr.slo = 100 * sim::kMillisecond;
  wr.working_set = 64;
  sc.classes = {rd, wr};
  for (std::uint32_t i = 1; i < 8; ++i) sc.client_nodes.push_back(i);
  sc.replay.path = path;
  sc.replay.clients = 3;
  sc.replay.time_scale = 1.0;
  sc.seed = 7;

  serve::Backends b;
  b.central = &fs;
  serve::ServeWorkload w(c.engine(), b, sc);
  w.start();
  c.run_until(1'200 * sim::kMillisecond);

  const serve::ServeTotals t = w.totals();
  const serve::SloClassReport all = w.slo().overall(sc.population.horizon);
  std::ostringstream out;
  out << "arrivals=" << t.arrivals << " open=" << t.open_arrivals
      << " replayed=" << t.replayed_arrivals
      << " completed=" << t.completed << " ok=" << all.ok << " p99_us="
      << static_cast<long long>(all.p99_ms * 1000);
  return out.str();
}

TEST(ServeReplay, RecordedArrivalsAreCountedAndServed) {
  const std::string path = temp_path("now_replay_serve.trace");
  {
    // 200 records inside the 1 s horizon, mixed clients, 25 % writes.
    std::ofstream f(path);
    for (int i = 0; i < 200; ++i) {
      f << i * 4'000 << " " << i % 5 << " " << i % 300 << " "
        << (i % 4 == 0 ? 'w' : 'r') << "\n";
    }
  }
  const std::string r = run_serve_replay(path);
  EXPECT_NE(r.find("replayed=200"), std::string::npos) << r;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace now::replay
