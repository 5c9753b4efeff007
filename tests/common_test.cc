#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace unify {
namespace {

// ---------------------------------------------------------------------------
// Status / StatusOr
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad thing");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Aborted("x").code(), StatusCode::kAborted);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x * 2;
}

TEST(StatusOrTest, HoldsValue) {
  auto r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  auto r = ParsePositive(-1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(7), 7);
}

StatusOr<int> ChainTwice(int x) {
  UNIFY_ASSIGN_OR_RETURN(int doubled, ParsePositive(x));
  UNIFY_ASSIGN_OR_RETURN(int quadrupled, ParsePositive(doubled));
  return quadrupled;
}

TEST(StatusOrTest, AssignOrReturnMacroPropagates) {
  EXPECT_EQ(ChainTwice(1).value(), 4);
  EXPECT_FALSE(ChainTwice(0).ok());
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextUint64InRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(RngTest, DoublesInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  SampleStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Gaussian());
  EXPECT_NEAR(stats.Mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.StdDev(), 1.0, 0.05);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(19);
  std::vector<double> weights = {1, 3, 6};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.6, 0.02);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(23);
  auto sample = rng.SampleWithoutReplacement(100, 40);
  std::set<size_t> set(sample.begin(), sample.end());
  EXPECT_EQ(set.size(), 40u);
  for (size_t s : set) EXPECT_LT(s, 100u);
}

TEST(RngTest, SampleWithoutReplacementFullAndOverdraw) {
  Rng rng(29);
  EXPECT_EQ(rng.SampleWithoutReplacement(10, 10).size(), 10u);
  EXPECT_EQ(rng.SampleWithoutReplacement(10, 20).size(), 10u);
}

TEST(RngTest, ZipfSkewsTowardSmallIndices) {
  Rng rng(31);
  int head = 0;
  for (int i = 0; i < 5000; ++i) head += rng.Zipf(20, 1.0) < 3;
  EXPECT_GT(head, 2000);  // >40% mass on the top 3 of 20
}

TEST(RngTest, ForkIsIndependentButDeterministic) {
  Rng a(7);
  Rng b(7);
  Rng fa = a.Fork(1);
  Rng fb = b.Fork(1);
  EXPECT_EQ(fa.Next(), fb.Next());
  Rng other = a.Fork(2);
  EXPECT_NE(a.Fork(1).Next(), other.Next());
}

TEST(HashTest, StableHashIsStable) {
  EXPECT_EQ(StableHash64("hello"), StableHash64("hello"));
  EXPECT_NE(StableHash64("hello"), StableHash64("hellp"));
  EXPECT_NE(StableHash64(""), StableHash64(" "));
}

// ---------------------------------------------------------------------------
// String utilities
// ---------------------------------------------------------------------------

TEST(StringUtilTest, StrSplitKeepsEmpty) {
  auto parts = StrSplit("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  auto parts = SplitWhitespace("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, JoinAndReplace) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrReplaceAll("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(StrReplaceAll("aaa", "aa", "b"), "ba");
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_EQ(AsciiToLower("HeLLo"), "hello");
  EXPECT_TRUE(StrContainsIgnoreCase("Hello World", "WORLD"));
  EXPECT_FALSE(StrContainsIgnoreCase("Hello", "xyz"));
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
}

TEST(StringUtilTest, ParseNumbers) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("-7").value(), -7);
  EXPECT_FALSE(ParseInt64("4x").has_value());
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_DOUBLE_EQ(ParseDouble("3.25").value(), 3.25);
  EXPECT_FALSE(ParseDouble("3.25x").has_value());
  EXPECT_EQ(ParseLeadingInt64("over 500 views").value(), 500);
  EXPECT_FALSE(ParseLeadingInt64("no digits").has_value());
}

TEST(StringUtilTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(FormatDouble(3.1400, 4), "3.14");
  EXPECT_EQ(FormatDouble(5.0, 3), "5");
  EXPECT_EQ(FormatDouble(0.5, 2), "0.5");
}

// ---------------------------------------------------------------------------
// SampleStats / q-error
// ---------------------------------------------------------------------------

TEST(StatsTest, BasicMoments) {
  SampleStats s;
  s.AddAll({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(s.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 5.0);
  EXPECT_DOUBLE_EQ(s.Median(), 3.0);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
}

TEST(StatsTest, QuantileInterpolates) {
  SampleStats s;
  s.AddAll({0, 10});
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.25), 2.5);
}

TEST(StatsTest, QuantileAfterIncrementalAdds) {
  SampleStats s;
  for (int i = 100; i >= 1; --i) s.Add(i);
  EXPECT_NEAR(s.Quantile(0.90), 90.1, 0.2);
  s.Add(1000);
  EXPECT_GT(s.Max(), 999);
}

TEST(QErrorTest, SymmetricAndClamped) {
  EXPECT_DOUBLE_EQ(QError(10, 100), 10.0);
  EXPECT_DOUBLE_EQ(QError(100, 10), 10.0);
  EXPECT_DOUBLE_EQ(QError(50, 50), 1.0);
  // Zero estimates are clamped to 1, not infinite.
  EXPECT_DOUBLE_EQ(QError(0, 100), 100.0);
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);
}

TEST(QErrorTest, ZeroCardinalityEdges) {
  // Zero ground truth (an empty filter result) is clamped the same way as
  // a zero estimate, so overestimating an empty set stays finite.
  EXPECT_DOUBLE_EQ(QError(100, 0), 100.0);
  EXPECT_DOUBLE_EQ(QError(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0, 1), 1.0);
  // Fractional estimates below one are clamped up, never inflating the
  // error beyond what a 1-row estimate would score.
  EXPECT_DOUBLE_EQ(QError(0.25, 50), 50.0);
  EXPECT_DOUBLE_EQ(QError(50, 0.25), 50.0);
  EXPECT_DOUBLE_EQ(QError(0.25, 0.5), 1.0);
  EXPECT_GE(QError(0, 1e12), 1.0);
}

// ---------------------------------------------------------------------------
// Histogram (mergeable log-linear buckets)
// ---------------------------------------------------------------------------

/// The nearest-rank order statistic the bucket quantile is bounded
/// against: the value of rank ceil(q * n) (at least 1) in sorted order.
double NearestRank(const SampleStats& stats, double q) {
  std::vector<double> sorted = stats.values();
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  const size_t rank =
      static_cast<size_t>(std::clamp(std::ceil(q * n), 1.0, n));
  return sorted[rank - 1];
}

/// Every quantile of `h` is within the stated relative bound of the
/// nearest-rank order statistic of the same stream.
void ExpectWithinBound(const Histogram& h, const SampleStats& reference) {
  ASSERT_EQ(h.count(), reference.count());
  for (double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    const double exact = NearestRank(reference, q);
    EXPECT_LE(std::abs(h.Quantile(q) - exact),
              Histogram::kRelativeError * std::abs(exact))
        << "q=" << q << " exact=" << exact;
  }
}

TEST(HistogramTest, CountSumMinMaxAreExact) {
  Histogram h;
  SampleStats reference;
  for (int i = 1; i <= 100; ++i) {
    h.Add(i);
    reference.Add(i);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), reference.sum());
  EXPECT_DOUBLE_EQ(h.Mean(), reference.Mean());
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 100.0);
  // The extreme ranks are the exact min and max.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 100.0);
  ExpectWithinBound(h, reference);
}

TEST(HistogramTest, MemoryStaysBoundedAsCountGrows) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Add(i);
  const size_t buckets = h.buckets();
  for (int round = 0; round < 99; ++round) {
    for (int i = 0; i < 1000; ++i) h.Add(i);
  }
  EXPECT_EQ(h.count(), 100000u);
  // Memory depends on the range of values, not on how many there are:
  // 16 buckets per power of two from 1 to 999.
  EXPECT_EQ(h.buckets(), buckets);
  EXPECT_LE(h.buckets(), 10u * Histogram::kSubBuckets);
  // count/sum/min/max stay exact.
  EXPECT_DOUBLE_EQ(h.Min(), 0.0);
  EXPECT_DOUBLE_EQ(h.Max(), 999.0);
  EXPECT_DOUBLE_EQ(h.sum(), 100.0 * 999.0 * 1000.0 / 2.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 999.0 / 2.0);
  EXPECT_NEAR(h.Quantile(0.5), 499.0, 499.0 * Histogram::kRelativeError);
}

TEST(HistogramTest, DeterministicAndIndependentOfOrder) {
  // Buckets hold counts, not a sample: the same observations in any order
  // give the same quantiles.
  std::vector<double> values;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) values.push_back(rng.Uniform(0, 1000));
  Histogram forward;
  Histogram backward;
  for (double v : values) forward.Add(v);
  for (auto it = values.rbegin(); it != values.rend(); ++it) {
    backward.Add(*it);
  }
  for (double q : {0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    EXPECT_EQ(forward.Quantile(q), backward.Quantile(q)) << q;
  }
  EXPECT_EQ(forward.Min(), backward.Min());
  EXPECT_EQ(forward.Max(), backward.Max());
}

TEST(HistogramTest, QuantileInterleavedWithAdds) {
  Histogram h;
  for (int i = 1; i <= 10; ++i) h.Add(i);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 10.0);
  h.Add(1000);  // a new observation must show in the next quantile
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1000.0);
  EXPECT_DOUBLE_EQ(h.Max(), 1000.0);
}

TEST(HistogramTest, QuantilesStayWithinTheBoundOnTypicalStreams) {
  Rng rng(11);
  {
    SCOPED_TRACE("uniform");
    Histogram h;
    SampleStats reference;
    for (int i = 0; i < 20000; ++i) {
      const double v = rng.Uniform(0.001, 50.0);
      h.Add(v);
      reference.Add(v);
    }
    ExpectWithinBound(h, reference);
  }
  {
    SCOPED_TRACE("log-normal");
    Histogram h;
    SampleStats reference;
    for (int i = 0; i < 20000; ++i) {
      const double v = std::exp(rng.Gaussian(0.0, 3.0));
      h.Add(v);
      reference.Add(v);
    }
    ExpectWithinBound(h, reference);
  }
  {
    SCOPED_TRACE("zero-heavy");
    Histogram h;
    SampleStats reference;
    for (int i = 0; i < 20000; ++i) {
      const double v = rng.Bernoulli(0.8) ? 0.0 : rng.Uniform(0.0, 2.0);
      h.Add(v);
      reference.Add(v);
    }
    ExpectWithinBound(h, reference);
    EXPECT_EQ(h.Quantile(0.5), 0.0);  // zero has an exact bucket
  }
  {
    SCOPED_TRACE("single value");
    Histogram h;
    SampleStats reference;
    for (int i = 0; i < 100; ++i) {
      h.Add(0.3);
      reference.Add(0.3);
    }
    ExpectWithinBound(h, reference);
    // Clamped to [min, max]: a single-valued stream reads back exactly.
    EXPECT_EQ(h.Quantile(0.5), 0.3);
  }
}

TEST(HistogramTest, MergeEqualsOneHistogramFedBothStreams) {
  Rng rng(5);
  Histogram a;
  Histogram b;
  Histogram both;
  for (int i = 0; i < 3000; ++i) {
    const double v = std::exp(rng.Gaussian(0.0, 2.0));
    a.Add(v);
    both.Add(v);
  }
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-5.0, 100.0);
    b.Add(v);
    both.Add(v);
  }
  Histogram merged = a;
  merged.Merge(b);
  EXPECT_EQ(merged.count(), both.count());
  EXPECT_NEAR(merged.sum(), both.sum(), 1e-9 * std::abs(both.sum()));
  EXPECT_EQ(merged.Min(), both.Min());
  EXPECT_EQ(merged.Max(), both.Max());
  EXPECT_EQ(merged.buckets(), both.buckets());
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    EXPECT_EQ(merged.Quantile(q), both.Quantile(q)) << q;
  }
  // Merging an empty histogram, or into one, changes nothing.
  Histogram empty;
  merged.Merge(empty);
  EXPECT_EQ(merged.count(), both.count());
  empty.Merge(a);
  EXPECT_EQ(empty.Quantile(0.5), a.Quantile(0.5));
  EXPECT_EQ(empty.Min(), a.Min());
}

TEST(HistogramTest, NegativeAndNonFiniteInputsFollowTheDocumentedRule) {
  // Negative values are bucketed by magnitude below zero: the bound holds
  // on both sides, and min/max/sum stay exact.
  Rng rng(3);
  Histogram h;
  SampleStats reference;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.Gaussian(0.0, 10.0);
    h.Add(v);
    reference.Add(v);
  }
  ExpectWithinBound(h, reference);
  EXPECT_DOUBLE_EQ(h.Min(), reference.Min());
  EXPECT_DOUBLE_EQ(h.Max(), reference.Max());
  EXPECT_NEAR(h.sum(), reference.sum(), 1e-9 * 10000 * 10);

  // NaN and infinities are dropped: count, sum, min and max never see
  // them, so the exposition never reads nan or inf.
  Histogram finite;
  finite.Add(1.0);
  finite.Add(std::nan(""));
  finite.Add(std::numeric_limits<double>::infinity());
  finite.Add(-std::numeric_limits<double>::infinity());
  finite.Add(3.0);
  EXPECT_EQ(finite.count(), 2u);
  EXPECT_DOUBLE_EQ(finite.sum(), 4.0);
  EXPECT_DOUBLE_EQ(finite.Min(), 1.0);
  EXPECT_DOUBLE_EQ(finite.Max(), 3.0);
  Histogram none;
  none.Add(std::nan(""));
  EXPECT_EQ(none.count(), 0u);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Schedule([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Schedule([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(LoggingTest, SinkCapturesFormattedLinesWithLevelAndThread) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  SetLogSink([&captured](LogLevel level, const std::string& line) {
    captured.emplace_back(level, line);
  });
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);

  UNIFY_LOG(Info) << "hello " << 42;
  UNIFY_LOG(Warning) << "uh oh";
  UNIFY_LOG(Debug) << "below the level: dropped";

  std::thread other([] { UNIFY_LOG(Info) << "from another thread"; });
  other.join();

  SetLogSink(nullptr);  // restore stderr before asserting
  SetLogLevel(saved);
  UNIFY_LOG(Debug) << "after restore: not captured";

  ASSERT_EQ(captured.size(), 3u);
  EXPECT_EQ(captured[0].first, LogLevel::kInfo);
  EXPECT_EQ(captured[1].first, LogLevel::kWarning);

  // `[<LEVEL> <UTC timestamp> t<ordinal> <file>:<line>] <message>` — the
  // level tag, a wall-clock date, and a thread ordinal, in that order.
  const std::string& info = captured[0].second;
  EXPECT_EQ(info.front(), '[');
  EXPECT_EQ(info.rfind("[I 20", 0), 0u) << info;
  EXPECT_NE(info.find(" t"), std::string::npos);
  EXPECT_NE(info.find("common_test.cc:"), std::string::npos);
  EXPECT_EQ(info.substr(info.size() - std::strlen("hello 42")), "hello 42");
  EXPECT_EQ(captured[1].second.rfind("[W 20", 0), 0u) << captured[1].second;

  // The other thread logged under a different ordinal than this one.
  const std::string t_tag = " t" + std::to_string(LogThreadOrdinal()) + " ";
  EXPECT_NE(info.find(t_tag), std::string::npos) << info;
  EXPECT_EQ(captured[2].second.find(t_tag), std::string::npos)
      << captured[2].second;
  EXPECT_GT(LogThreadOrdinal(), 0);
}

TEST(ThreadPoolTest, DrainsOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.Schedule([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace unify
