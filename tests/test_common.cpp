// Unit tests for the common substrate: types, RNG, thread pool, stats,
// tables, CLI parsing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"

namespace ispb {
namespace {

TEST(Types, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0);
  EXPECT_EQ(ceil_div(1, 4), 1);
  EXPECT_EQ(ceil_div(4, 4), 1);
  EXPECT_EQ(ceil_div(5, 4), 2);
  EXPECT_EQ(ceil_div(512, 32), 16);
  EXPECT_EQ(ceil_div(513, 32), 17);
}

TEST(Types, RoundUp) {
  EXPECT_EQ(round_up(0, 32), 0);
  EXPECT_EQ(round_up(1, 32), 32);
  EXPECT_EQ(round_up(32, 32), 32);
  EXPECT_EQ(round_up(33, 32), 64);
}

TEST(Types, RectBasics) {
  const Rect r{2, 3, 10, 7};
  EXPECT_EQ(r.width(), 8);
  EXPECT_EQ(r.height(), 4);
  EXPECT_EQ(r.area(), 32);
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE(r.contains(Index2{2, 3}));
  EXPECT_TRUE(r.contains(Index2{9, 6}));
  EXPECT_FALSE(r.contains(Index2{10, 6}));
  EXPECT_FALSE(r.contains(Index2{9, 7}));
}

TEST(Types, RectIntersect) {
  const Rect a{0, 0, 10, 10};
  const Rect b{5, 5, 15, 15};
  const Rect c = a.intersect(b);
  EXPECT_EQ(c, (Rect{5, 5, 10, 10}));
  const Rect d{20, 20, 30, 30};
  EXPECT_TRUE(a.intersect(d).empty());
}

TEST(Types, EmptyRectHasZeroArea) {
  EXPECT_EQ((Rect{5, 5, 5, 9}).area(), 0);
  EXPECT_EQ((Rect{5, 5, 2, 9}).area(), 0);
}

TEST(Error, ContractMacrosThrow) {
  EXPECT_THROW(ISPB_EXPECTS(false), ContractError);
  EXPECT_THROW(ISPB_ENSURES(false), ContractError);
  EXPECT_THROW(ISPB_ASSERT(false), ContractError);
  EXPECT_NO_THROW(ISPB_EXPECTS(true));
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformIntRangeRespected) {
  Rng rng(7);
  std::set<i32> seen;
  for (int i = 0; i < 2000; ++i) {
    const i32 v = rng.uniform_i32(-3, 5);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 9u);  // all values hit
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_i32(4, 4), 4);
}

TEST(Rng, UniformFloatInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const f32 v = rng.uniform_f32();
    ASSERT_GE(v, 0.0f);
    ASSERT_LT(v, 1.0f);
  }
}

TEST(Rng, UniformFloatMeanIsCentered) {
  Rng rng(13);
  f64 sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<f64>(rng.uniform_f32());
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, SurvivesThrowingTask) {
  // A task that throws must not std::terminate the process, must not leak
  // its worker thread, and must still count as finished (else wait_idle
  // would deadlock on the stuck in_flight count).
  ThreadPool pool(2);
  std::atomic<int> after{0};
  pool.submit([] { throw std::runtime_error("task boom"); });
  pool.wait_idle();
  // The pool must still run subsequent tasks on its full complement.
  for (int i = 0; i < 16; ++i) {
    pool.submit([&after] { after.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(after.load(), 16);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](i64 i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool ran = false;
  parallel_for(5, 5, [&](i64) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(0, 100,
                   [](i64 i) {
                     if (i == 57) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

// parallel_for joins on its own chunks only. Thread A's body blocks one
// pool worker on a gate; thread B's parallel_for must still return while A
// is blocked, instead of waiting for the whole pool to drain.
TEST(ParallelFor, DoesNotWaitForOtherCallersChunks) {
  if (ThreadPool::global().size() < 3) {
    GTEST_SKIP() << "needs at least 3 pool workers";
  }
  std::mutex mu;
  std::condition_variable gate;
  bool open = false;
  std::atomic<bool> a_blocked{false};
  std::thread a([&] {
    parallel_for(0, 64, [&](i64 i) {
      if (i != 0) return;
      a_blocked = true;
      std::unique_lock lock(mu);
      gate.wait(lock, [&] { return open; });
    });
  });
  while (!a_blocked) std::this_thread::yield();

  std::atomic<bool> b_done{false};
  std::atomic<i64> b_sum{0};
  std::thread b([&] {
    parallel_for(0, 64, [&](i64 i) { b_sum += i; });
    b_done = true;
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!b_done && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool returned_while_a_blocked = b_done;
  {
    std::lock_guard lock(mu);
    open = true;
  }
  gate.notify_all();
  a.join();
  b.join();
  EXPECT_TRUE(returned_while_a_blocked);
  EXPECT_EQ(b_sum.load(), 64 * 63 / 2);
}

TEST(Stats, GeometricMean) {
  const std::vector<f64> v{1.0, 4.0};
  EXPECT_DOUBLE_EQ(geometric_mean(v), 2.0);
  const std::vector<f64> one{7.5};
  EXPECT_DOUBLE_EQ(geometric_mean(one), 7.5);
  EXPECT_DOUBLE_EQ(geometric_mean({}), 1.0);
}

TEST(Stats, GeometricMeanRejectsNonPositive) {
  const std::vector<f64> v{1.0, 0.0};
  EXPECT_THROW((void)geometric_mean(v), ContractError);
}

TEST(Stats, MeanAndStddev) {
  const std::vector<f64> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_NEAR(stddev(v), 2.138, 1e-3);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<f64> x{1, 2, 3, 4, 5};
  const std::vector<f64> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  const std::vector<f64> z{10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
}

TEST(Stats, PearsonZeroVariance) {
  const std::vector<f64> x{1, 1, 1};
  const std::vector<f64> y{1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(Stats, Median) {
  EXPECT_DOUBLE_EQ(median(std::vector<f64>{3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<f64>{4, 1, 3, 2}), 2.5);
}

TEST(Stats, OrderStatisticsRejectEmptyInput) {
  // A silent 0.0 on empty input could masquerade as a real 0 ms latency in
  // serving reports; empty is a contract violation, try_* is the graceful
  // variant.
  EXPECT_THROW((void)median({}), ContractError);
  EXPECT_THROW((void)percentile({}, 50.0), ContractError);
  EXPECT_FALSE(try_median({}).has_value());
  EXPECT_FALSE(try_percentile({}, 50.0).has_value());
  const std::vector<f64> v{3, 1, 2};
  EXPECT_DOUBLE_EQ(try_median(v).value(), 2.0);
  EXPECT_DOUBLE_EQ(try_percentile(v, 100.0).value(), 3.0);
}

TEST(Stats, Summarize) {
  const std::vector<f64> v{1, 2, 3, 4};
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(Stats, PercentileInterpolatesLinearly) {
  const std::vector<f64> v{10, 20, 30, 40};  // positions 0, 1, 2, 3
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 25.0);   // pos 1.5
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 17.5);   // pos 0.75
  EXPECT_DOUBLE_EQ(percentile(v, 90.0), 37.0);   // pos 2.7
}

TEST(Stats, PercentileMatchesMedian) {
  const std::vector<f64> odd{3, 1, 2};
  EXPECT_DOUBLE_EQ(percentile(odd, 50.0), median(odd));
  const std::vector<f64> even{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(percentile(even, 50.0), median(even));
}

TEST(Stats, PercentileIgnoresInputOrder) {
  const std::vector<f64> shuffled{40, 10, 30, 20};
  EXPECT_DOUBLE_EQ(percentile(shuffled, 75.0), 32.5);
}

TEST(Stats, PercentileEdgeCases) {
  const std::vector<f64> one{7.5};
  EXPECT_DOUBLE_EQ(percentile(one, 0.0), 7.5);
  EXPECT_DOUBLE_EQ(percentile(one, 50.0), 7.5);
  EXPECT_DOUBLE_EQ(percentile(one, 100.0), 7.5);
}

TEST(Stats, PercentileRejectsOutOfRangeP) {
  const std::vector<f64> v{1, 2};
  EXPECT_THROW((void)percentile(v, -1.0), ContractError);
  EXPECT_THROW((void)percentile(v, 100.5), ContractError);
}

TEST(Table, RendersAlignedCells) {
  AsciiTable t("demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "20000"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("20000"), std::string::npos);
  // header and both rows present
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(AsciiTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(AsciiTable::num(static_cast<long long>(42)), "42");
}

TEST(Table, RowArityChecked) {
  AsciiTable t("demo");
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractError);
}

TEST(Cli, ParsesForms) {
  // Note: a bare `--flag` followed by a non-option token consumes it as the
  // flag's value, so positional arguments must precede space-form options.
  const char* argv[] = {"prog", "pos1", "--size=512", "--gpu", "gtx680",
                        "--fast"};
  Cli cli(6, argv);
  cli.option("size", "").option("gpu", "").option("fast", "");
  EXPECT_FALSE(cli.finish());
  EXPECT_EQ(cli.get_int("size", 0), 512);
  EXPECT_EQ(cli.get_string("gpu", ""), "gtx680");
  EXPECT_TRUE(cli.get_flag("fast"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get_int("missing", 7), 7);
  EXPECT_EQ(cli.get_string("missing", "x"), "x");
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(cli.get_flag("missing"));
}

TEST(Cli, UnknownOptionRejected) {
  const char* argv[] = {"prog", "--oops=1"};
  Cli cli(2, argv);
  cli.option("size", "");
  EXPECT_THROW((void)cli.finish(), IoError);
}

TEST(Cli, MalformedIntegerRejected) {
  const char* argv[] = {"prog", "--size=abc"};
  Cli cli(2, argv);
  EXPECT_THROW((void)cli.get_int("size", 0), IoError);
}

TEST(Cli, HelpFlagDetected) {
  const char* argv[] = {"prog", "--help"};
  Cli cli(2, argv);
  EXPECT_TRUE(cli.finish());
  EXPECT_NE(cli.help().find("usage:"), std::string::npos);
}

}  // namespace
}  // namespace ispb
