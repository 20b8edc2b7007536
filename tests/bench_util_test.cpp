// The benches' flag parsers (bench/bench_util.hpp): a value that does not
// parse, or a value flag with no value after it, must stop the bench with
// the flag named, never fall back to a default sweep.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace now::bench {
namespace {

// argv-shaped view over string literals ("bench" is argv[0]).
struct Args {
  explicit Args(std::vector<const char*> a) : v(std::move(a)) {
    v.insert(v.begin(), "bench");
  }
  int argc() const { return static_cast<int>(v.size()); }
  char** argv() { return const_cast<char**>(v.data()); }
  std::vector<const char*> v;
};

TEST(BenchFlags, AbsentFlagsKeepTheirDefaults) {
  Args a({"--json", "out.json"});
  EXPECT_EQ(parse_jobs(a.argc(), a.argv()), 0u);
  EXPECT_EQ(parse_nodes(a.argc(), a.argv()), 0u);
  EXPECT_EQ(parse_trace_scale(a.argc(), a.argv()), 1.0);
}

TEST(BenchFlags, WellFormedValuesParse) {
  Args a({"--jobs", "3", "--nodes", "256", "--trace-scale", "2.5"});
  EXPECT_EQ(parse_jobs(a.argc(), a.argv()), 3u);
  EXPECT_EQ(parse_nodes(a.argc(), a.argv()), 256u);
  EXPECT_EQ(parse_trace_scale(a.argc(), a.argv()), 2.5);
}

TEST(BenchFlags, NonPositiveTraceScaleFallsBackToOne) {
  Args zero({"--trace-scale", "0"});
  EXPECT_EQ(parse_trace_scale(zero.argc(), zero.argv()), 1.0);
  Args neg({"--trace-scale", "-2"});
  EXPECT_EQ(parse_trace_scale(neg.argc(), neg.argv()), 1.0);
}

TEST(BenchFlagsDeathTest, GarbledValuesExitNamingFlagAndValue) {
  Args nodes({"--nodes", "abc"});
  EXPECT_EXIT(parse_nodes(nodes.argc(), nodes.argv()),
              testing::ExitedWithCode(2), "--nodes expects a number, got 'abc'");
  Args jobs({"--jobs", "4x"});
  EXPECT_EXIT(parse_jobs(jobs.argc(), jobs.argv()),
              testing::ExitedWithCode(2), "--jobs .*'4x'");
  Args neg({"--jobs", "-1"});
  EXPECT_EXIT(parse_jobs(neg.argc(), neg.argv()),
              testing::ExitedWithCode(2), "--jobs .*'-1'");
  Args empty({"--nodes", ""});
  EXPECT_EXIT(parse_nodes(empty.argc(), empty.argv()),
              testing::ExitedWithCode(2), "--nodes .*''");
  Args huge({"--nodes", "99999999999"});
  EXPECT_EXIT(parse_nodes(huge.argc(), huge.argv()),
              testing::ExitedWithCode(2), "--nodes .*'99999999999'");
  Args scale({"--trace-scale", "fast"});
  EXPECT_EXIT(parse_trace_scale(scale.argc(), scale.argv()),
              testing::ExitedWithCode(2), "--trace-scale .*'fast'");
  // A value flag given last has no value: it must not run as if absent.
  Args last_nodes({"--jobs", "2", "--nodes"});
  EXPECT_EXIT(parse_nodes(last_nodes.argc(), last_nodes.argv()),
              testing::ExitedWithCode(2), "error: --nodes expects a value");
  Args last_json({"--json"});
  EXPECT_EXIT(JsonReport(last_json.argc(), last_json.argv(), "b", "u"),
              testing::ExitedWithCode(2), "error: --json expects a value");
  Args last_trace({"--trace-scale", "2", "--trace"});
  EXPECT_EXIT(parse_trace(last_trace.argc(), last_trace.argv()),
              testing::ExitedWithCode(2), "error: --trace expects a value");

  // Every bench prints its heading before it parses its flags; a refused
  // flag must still leave a redirected stdout empty.
  const std::string out = testing::TempDir() + "bench_refused_flag_stdout.txt";
  const auto refused_stdout = [&out] {
    std::ifstream f(out);
    return std::string(std::istreambuf_iterator<char>(f), {});
  };
  for (Args* refused : {&nodes, &last_nodes}) {
    std::remove(out.c_str());
    EXPECT_EXIT(
        {
          if (std::freopen(out.c_str(), "w", stdout) == nullptr) std::_Exit(3);
          heading("bench", "paper");
          parse_nodes(refused->argc(), refused->argv());
        },
        testing::ExitedWithCode(2), "--nodes");
    EXPECT_EQ(refused_stdout(), "");
  }
  std::remove(out.c_str());
  EXPECT_EXIT(
      {
        if (std::freopen(out.c_str(), "w", stdout) == nullptr) std::_Exit(3);
        heading("bench", "paper");
        JsonReport(last_json.argc(), last_json.argv(), "b", "u");
      },
      testing::ExitedWithCode(2), "--json");
  EXPECT_EQ(refused_stdout(), "");
  std::remove(out.c_str());
}

}  // namespace
}  // namespace now::bench
