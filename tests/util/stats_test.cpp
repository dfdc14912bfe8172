#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.h"

namespace psc::util {
namespace {

// The Welch test's inputs, from running statistics.
MomentSummary summary(const RunningStats& s) {
  return {s.count(), s.mean(), s.variance()};
}

// The Welch test's inputs, from raw samples.
MomentSummary summary(const std::vector<double>& xs) {
  RunningStats s;
  for (const double x : xs) {
    s.add(x);
  }
  return summary(s);
}

WelchResult welch(const std::vector<double>& a, const std::vector<double>& b) {
  return welch_t_test(summary(a), summary(b));
}

WelchResult welch(const RunningStats& a, const RunningStats& b) {
  return welch_t_test(summary(a), summary(b));
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStats, NumericallyStableAroundLargeOffset) {
  RunningStats s;
  const double offset = 1e9;
  for (const double x : {offset + 1.0, offset + 2.0, offset + 3.0}) {
    s.add(x);
  }
  EXPECT_NEAR(s.mean(), offset + 2.0, 1e-6);
  EXPECT_NEAR(s.variance(), 1.0, 1e-6);
}

TEST(WelchTTest, HandComputedExample) {
  // a = {1..5}: mean 3, var 2.5; b = {2,4,6,8,10}: mean 6, var 10.
  // t = (3-6)/sqrt(2.5/5 + 10/5) = -3/sqrt(2.5) = -1.8973665961.
  const std::vector<double> a = {1, 2, 3, 4, 5};
  const std::vector<double> b = {2, 4, 6, 8, 10};
  const WelchResult r = welch(a, b);
  EXPECT_NEAR(r.t, -1.8973665961, 1e-9);
  // Welch-Satterthwaite dof = 2.5^2 / (0.5^2/4 + 2^2/4) = 6.25/1.0625.
  EXPECT_NEAR(r.dof, 5.8823529412, 1e-9);
}

TEST(WelchTTest, SymmetricSign) {
  const std::vector<double> a = {1, 2, 3, 4, 5};
  const std::vector<double> b = {2, 4, 6, 8, 10};
  EXPECT_DOUBLE_EQ(welch(a, b).t, -welch(b, a).t);
}

TEST(WelchTTest, IdenticalSetsGiveZero) {
  const std::vector<double> a = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(welch(a, a).t, 0.0);
}

TEST(WelchTTest, DegenerateInputsGiveZero) {
  const std::vector<double> one = {1.0};
  const std::vector<double> many = {1, 2, 3};
  EXPECT_DOUBLE_EQ(welch(one, many).t, 0.0);
  const std::vector<double> constant = {5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(welch(constant, constant).t, 0.0);
}

TEST(WelchTTest, DetectsSeparatedDistributions) {
  Xoshiro256 rng(22);
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 5000; ++i) {
    a.add(rng.gaussian(0.0, 1.0));
    b.add(rng.gaussian(0.2, 1.0));
  }
  const WelchResult r = welch(a, b);
  EXPECT_LT(r.t, -tvla_threshold);
}

TEST(WelchTTest, NullHypothesisStaysBelowThreshold) {
  // Same distribution: |t| should almost always stay below 4.5.
  Xoshiro256 rng(23);
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 5000; ++i) {
    a.add(rng.gaussian(1.0, 2.0));
    b.add(rng.gaussian(1.0, 2.0));
  }
  EXPECT_LT(std::abs(welch(a, b).t), tvla_threshold);
}

// Property: Welch t grows like sqrt(n) for a fixed mean separation.
class WelchGrowth : public ::testing::TestWithParam<int> {};

TEST_P(WelchGrowth, TScalesWithSampleCount) {
  const int n = GetParam();
  Xoshiro256 rng(27);
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < n; ++i) {
    a.add(rng.gaussian(0.0, 1.0));
    b.add(rng.gaussian(0.5, 1.0));
  }
  const double expected = 0.5 / std::sqrt(2.0 / n);
  EXPECT_NEAR(std::abs(welch(a, b).t), expected, 0.35 * expected);
}

INSTANTIATE_TEST_SUITE_P(SampleCounts, WelchGrowth,
                         ::testing::Values(200, 800, 3200, 12800));

}  // namespace
}  // namespace psc::util
