// Tests for the shared bench harness: the parallel sweep runner must be
// byte-identical to a sequential run, and the --json table dump must emit
// parseable output.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"

namespace ecoscale {
namespace {

/// RAII save/restore of the process-wide bench options.
struct OptionsGuard {
  bench::Options saved = bench::options();
  ~OptionsGuard() { bench::options() = saved; }
};

TEST(ParallelSweep, ResultsComeBackInSubmissionOrder) {
  OptionsGuard guard;
  bench::options().threads = 4;
  // Early points sleep longest, so completion order is reversed from
  // submission order; the result vector must still be index-ordered.
  auto results = bench::parallel_sweep(8, [](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(8 - i));
    return i * i;
  });
  ASSERT_EQ(results.size(), 8u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * i);
  }
}

TEST(ParallelSweep, ParallelMatchesSequential) {
  auto point = [](std::size_t i) {
    // Each point owns its own deterministic state.
    std::uint64_t h = 0x9e3779b97f4a7c15ull + i;
    for (int k = 0; k < 1000; ++k) h = h * 6364136223846793005ull + i;
    std::ostringstream os;
    os << "point-" << i << "-" << h;
    return os.str();
  };
  OptionsGuard guard;
  bench::options().threads = 1;
  const auto sequential = bench::parallel_sweep(16, point);
  bench::options().threads = 8;
  const auto parallel = bench::parallel_sweep(16, point);
  EXPECT_EQ(sequential, parallel);
}

TEST(ParallelSweep, AllPointsRunExactlyOnce) {
  OptionsGuard guard;
  bench::options().threads = 8;
  std::atomic<int> runs{0};
  auto results = bench::parallel_sweep(100, [&runs](std::size_t i) {
    runs.fetch_add(1);
    return i;
  });
  EXPECT_EQ(runs.load(), 100);
  ASSERT_EQ(results.size(), 100u);
}

TEST(ParallelSweep, FirstExceptionInSubmissionOrderPropagates) {
  OptionsGuard guard;
  bench::options().threads = 4;
  try {
    bench::parallel_sweep(8, [](std::size_t i) -> int {
      if (i == 3) throw std::runtime_error("point 3 failed");
      if (i == 6) throw std::runtime_error("point 6 failed");
      return 0;
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "point 3 failed");
  }
}

TEST(ParallelSweep, ZeroAndOnePointsAreFine) {
  OptionsGuard guard;
  bench::options().threads = 4;
  EXPECT_TRUE(bench::parallel_sweep(0, [](std::size_t) { return 1; }).empty());
  const auto one = bench::parallel_sweep(1, [](std::size_t) { return 7; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 7);
}

TEST(SweepThreads, FlagBeatsEnvBeatsHardware) {
  OptionsGuard guard;
  bench::options().threads = 3;
  EXPECT_EQ(bench::sweep_threads(), 3u);
  bench::options().threads = 0;
  EXPECT_GE(bench::sweep_threads(), 1u);
}

TEST(JsonDump, RecordedTablesFlushAsJson) {
  OptionsGuard guard;
  const std::string path =
      ::testing::TempDir() + "/bench_util_test_tables.json";
  bench::options().json_path = path;
  Table t({"size", "value"});
  t.add_row({"4", "1.5e+03"});
  t.add_row({"8", "3.0e+03"});
  // print_table records into the sink when json_path is set.
  std::ostringstream discard;
  bench::detail::JsonSink::instance().record(t, "caption \"quoted\"");
  bench::detail::JsonSink::instance().flush(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"tables\""), std::string::npos);
  EXPECT_NE(json.find("\"caption \\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(json.find("[\"size\", \"value\"]"), std::string::npos);
  EXPECT_NE(json.find("[\"8\", \"3.0e+03\"]"), std::string::npos);
}

TEST(Flags, InitParsesJsonAndThreads) {
  OptionsGuard guard;
  bench::options() = bench::Options{};
  const std::string path = ::testing::TempDir() + "/unused.json";
  std::string a0 = "bench", a1 = "--threads", a2 = "5", a3 = "--ignored";
  char* argv[] = {a0.data(), a1.data(), a2.data(), a3.data()};
  bench::init(4, argv);
  EXPECT_EQ(bench::options().threads, 5u);
  EXPECT_TRUE(bench::options().json_path.empty());
}

TEST(Flags, InitParsesServeLoadFlags) {
  OptionsGuard guard;
  bench::options() = bench::Options{};
  std::string a0 = "bench", a1 = "--offered-load", a2 = "2.5e6",
              a3 = "--zipf", a4 = "0.99";
  char* argv[] = {a0.data(), a1.data(), a2.data(), a3.data(), a4.data()};
  bench::init(5, argv);
  EXPECT_DOUBLE_EQ(bench::options().offered_load, 2.5e6);
  EXPECT_DOUBLE_EQ(bench::options().zipf, 0.99);
}

TEST(Flags, MalformedLoadValueWarnsAndKeepsDefault) {
  for (const char* bad : {"fast", "2..5", "1e", "", "-3", "nan", "inf",
                          "4x"}) {
    OptionsGuard guard;
    bench::options() = bench::Options{};
    double out = 123.0;
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(bench::parse_load_flag("--offered-load", bad, out))
        << "value was \"" << bad << "\"";
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("malformed --offered-load"), std::string::npos)
        << "value was \"" << bad << "\"";
    EXPECT_DOUBLE_EQ(out, 123.0) << "value was \"" << bad << "\"";
  }
}

TEST(Flags, MalformedLoadFlagViaInitKeepsDefaults) {
  OptionsGuard guard;
  bench::options() = bench::Options{};
  std::string a0 = "bench", a1 = "--offered-load", a2 = "lots",
              a3 = "--zipf", a4 = "-0.5";
  char* argv[] = {a0.data(), a1.data(), a2.data(), a3.data(), a4.data()};
  ::testing::internal::CaptureStderr();
  bench::init(5, argv);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("malformed --offered-load"), std::string::npos);
  EXPECT_NE(err.find("malformed --zipf"), std::string::npos);
  EXPECT_DOUBLE_EQ(bench::options().offered_load, 0.0);
  EXPECT_DOUBLE_EQ(bench::options().zipf, -1.0);
}

// Command lines written for the retired --sim-threads flag still run:
// init() skips the flag and its value and parses the rest.
TEST(Flags, RetiredSimThreadsFlagIsSkipped) {
  OptionsGuard guard;
  bench::options() = bench::Options{};
  std::string a0 = "bench", a1 = "--sim-threads", a2 = "4", a3 = "--threads",
              a4 = "5", a5 = "--zipf", a6 = "0.5";
  char* argv[] = {a0.data(), a1.data(), a2.data(), a3.data(),
                  a4.data(), a5.data(), a6.data()};
  ::testing::internal::CaptureStderr();
  bench::init(7, argv);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(bench::options().threads, 5u);
  EXPECT_DOUBLE_EQ(bench::options().zipf, 0.5);
}

// ECOSCALE_SIM_THREADS is no longer read: a malformed value warns about
// nothing and leaves the sweep's thread count alone.
TEST(Flags, RetiredSimThreadsEnvIsIgnored) {
  OptionsGuard guard;
  bench::options() = bench::Options{};
  const char* old = std::getenv("ECOSCALE_SIM_THREADS");
  const std::string saved = old != nullptr ? old : "";
  ::setenv("ECOSCALE_SIM_THREADS", "four", 1);
  std::string a0 = "bench", a1 = "--threads", a2 = "3";
  char* argv[] = {a0.data(), a1.data(), a2.data()};
  ::testing::internal::CaptureStderr();
  bench::init(3, argv);
  const std::size_t sweep = bench::sweep_threads();
  const std::string err = ::testing::internal::GetCapturedStderr();
  if (old != nullptr) {
    ::setenv("ECOSCALE_SIM_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("ECOSCALE_SIM_THREADS");
  }
  EXPECT_EQ(err, "");
  EXPECT_EQ(sweep, 3u);
}

TEST(Flags, ZeroLoadParsesAsBenchDefaultSweep) {
  double out = 9.0;
  EXPECT_TRUE(bench::parse_load_flag("--offered-load", "0", out));
  EXPECT_DOUBLE_EQ(out, 0.0);
}

}  // namespace
}  // namespace ecoscale
