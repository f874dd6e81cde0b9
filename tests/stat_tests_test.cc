// Unit tests for stats/tests.h: two-sample tests and p-value aggregation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "stats/distributions.h"
#include "stats/tests.h"

namespace ziggy {
namespace {

using Counts = std::vector<int64_t>;

NumericStats SampledNormal(Rng* rng, int n, double mean, double sd) {
  NumericStats s;
  for (int i = 0; i < n; ++i) s.Add(rng->Normal(mean, sd));
  return s;
}

// ----------------------------------------------------------------- Welch --

TEST(WelchTTestTest, DetectsMeanShift) {
  Rng rng(1);
  NumericStats a = SampledNormal(&rng, 300, 1.0, 1.0);
  NumericStats b = SampledNormal(&rng, 300, 0.0, 1.0);
  TestResult r = WelchTTest(a, b);
  ASSERT_TRUE(r.defined);
  EXPECT_GT(r.statistic, 5.0);
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(WelchTTestTest, NullCaseIsCalibrated) {
  // Under H0, p-values should be roughly uniform: check the rejection rate
  // at alpha = 0.1 over repeated draws.
  Rng rng(2);
  int rejections = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    NumericStats a = SampledNormal(&rng, 50, 0.0, 1.0);
    NumericStats b = SampledNormal(&rng, 50, 0.0, 1.0);
    if (WelchTTest(a, b).p_value < 0.1) ++rejections;
  }
  const double rate = static_cast<double>(rejections) / trials;
  EXPECT_NEAR(rate, 0.1, 0.05);
}

TEST(WelchTTestTest, UnequalVariancesHandled) {
  Rng rng(3);
  NumericStats a = SampledNormal(&rng, 100, 0.5, 5.0);
  NumericStats b = SampledNormal(&rng, 2000, 0.0, 0.1);
  TestResult r = WelchTTest(a, b);
  ASSERT_TRUE(r.defined);
  // Welch dof must be far below the pooled dof (dominated by the small
  // high-variance sample).
  EXPECT_LT(r.dof, 150.0);
}

TEST(WelchTTestTest, UndefinedOnTinySamples) {
  NumericStats a;
  a.Add(1.0);
  NumericStats c;
  c.Add(1.0);
  c.Add(2.0);
  EXPECT_FALSE(WelchTTest(a, c).defined);
  EXPECT_FALSE(WelchTTest(c, a).defined);
}

TEST(WelchTTestTest, PointMassDistributions) {
  NumericStats a;
  NumericStats b;
  for (int i = 0; i < 5; ++i) {
    a.Add(2.0);
    b.Add(2.0);
  }
  TestResult same = WelchTTest(a, b);
  ASSERT_TRUE(same.defined);
  EXPECT_DOUBLE_EQ(same.p_value, 1.0);
  NumericStats c;
  for (int i = 0; i < 5; ++i) c.Add(3.0);
  TestResult diff = WelchTTest(a, c);
  EXPECT_DOUBLE_EQ(diff.p_value, 0.0);
}

// ------------------------------------------------------- TestStatistic ---

TEST(TestStatisticTest, DegenerateOutcomesCarryFixedPValue) {
  NumericStats a;
  NumericStats c;
  for (int i = 0; i < 5; ++i) {
    a.Add(2.0);
    c.Add(3.0);
  }
  const TestStatistic welch = WelchTStatistic(a, c);
  EXPECT_EQ(welch.null_distribution, TestStatistic::NullDistribution::kFixed);
  EXPECT_TRUE(welch.defined);
  EXPECT_EQ(welch.PValue(), 0.0);
  const TestStatistic f = VarianceFStatistic(a, a);
  EXPECT_EQ(f.null_distribution, TestStatistic::NullDistribution::kFixed);
  EXPECT_EQ(f.PValue(), 1.0);
  // Undefined: too few rows, or a single used category.
  EXPECT_FALSE(WelchTStatistic(NumericStats{}, a).defined);
  EXPECT_EQ(WelchTStatistic(NumericStats{}, a).PValue(), 1.0);
  const TestStatistic one_live =
      ChiSquareHomogeneityStatistic(Counts{4, 0}, Counts{7, 0});
  EXPECT_FALSE(one_live.defined);
  EXPECT_EQ(one_live.PValue(), 1.0);
}

TEST(TestStatisticTest, PValueIsTheNullDistributionTail) {
  Rng rng(8);
  const NumericStats a = SampledNormal(&rng, 120, 0.3, 1.5);
  const NumericStats b = SampledNormal(&rng, 90, 0.0, 1.0);
  const TestResult t = WelchTTest(a, b);
  const TestStatistic ts = WelchTStatistic(a, b);
  EXPECT_EQ(ts.null_distribution, TestStatistic::NullDistribution::kStudentT);
  EXPECT_EQ(ts.PValue(), TwoSidedTPValue(ts.statistic, ts.dof));
  EXPECT_EQ(ts.PValue(), t.p_value);
  EXPECT_EQ(ts.dof, t.dof);
  const TestStatistic fs = VarianceFStatistic(a, b);
  EXPECT_EQ(fs.dof, 119.0);
  EXPECT_EQ(fs.dof2, 89.0);
  const double cdf = FCdf(fs.statistic, 119.0, 89.0);
  EXPECT_EQ(fs.PValue(), std::clamp(2.0 * std::min(cdf, 1.0 - cdf), 0.0, 1.0));
  EXPECT_EQ(fs.PValue(), VarianceFTest(a, b).p_value);
  const std::vector<int64_t> in = {30, 10, 5};
  const std::vector<int64_t> out = {20, 20, 20};
  const TestStatistic cs = ChiSquareHomogeneityStatistic(in, out);
  EXPECT_EQ(cs.null_distribution,
            TestStatistic::NullDistribution::kChiSquare);
  EXPECT_EQ(cs.dof, 2.0);
  EXPECT_EQ(cs.PValue(), ChiSquarePValue(cs.statistic, 2.0));
  EXPECT_EQ(cs.PValue(), ChiSquareHomogeneityTest(in, out).p_value);
}

// --------------------------------------------------------------- F test ----

TEST(VarianceFTestTest, DetectsVarianceRatio) {
  Rng rng(5);
  NumericStats a = SampledNormal(&rng, 400, 0.0, 3.0);
  NumericStats b = SampledNormal(&rng, 400, 0.0, 1.0);
  TestResult r = VarianceFTest(a, b);
  ASSERT_TRUE(r.defined);
  EXPECT_NEAR(r.statistic, 9.0, 1.5);
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(VarianceFTestTest, EqualVariancesNotRejected) {
  Rng rng(6);
  NumericStats a = SampledNormal(&rng, 500, 0.0, 2.0);
  NumericStats b = SampledNormal(&rng, 500, 10.0, 2.0);
  EXPECT_GT(VarianceFTest(a, b).p_value, 0.01);
}

TEST(VarianceFTestTest, TwoSidedSymmetry) {
  Rng rng(7);
  NumericStats a = SampledNormal(&rng, 200, 0.0, 2.0);
  NumericStats b = SampledNormal(&rng, 300, 0.0, 1.0);
  const double p_ab = VarianceFTest(a, b).p_value;
  const double p_ba = VarianceFTest(b, a).p_value;
  EXPECT_NEAR(p_ab, p_ba, 1e-10);
}

TEST(VarianceFTestTest, ZeroVarianceEdge) {
  NumericStats a;
  NumericStats b;
  for (int i = 0; i < 4; ++i) {
    a.Add(1.0);
    b.Add(static_cast<double>(i));
  }
  TestResult r = VarianceFTest(a, b);
  ASSERT_TRUE(r.defined);
  EXPECT_DOUBLE_EQ(r.p_value, 0.0);
}

// ---------------------------------------------------------- correlation z --

TEST(CorrelationZTestTest, DetectsDifference) {
  TestResult r = CorrelationZTest(0.9, 200, 0.1, 200);
  ASSERT_TRUE(r.defined);
  EXPECT_LT(r.p_value, 1e-10);
  EXPECT_GT(r.statistic, 6.0);
}

TEST(CorrelationZTestTest, UndefinedOnTinySamples) {
  EXPECT_FALSE(CorrelationZTest(0.9, 2, 0.1, 200).defined);
}

// ------------------------------------------------------------- chi-square --

TEST(ChiSquareHomogeneityTest_, IdenticalProportionsNotRejected) {
  std::vector<int64_t> a{100, 200, 300};
  std::vector<int64_t> b{200, 400, 600};  // same proportions, twice the mass
  TestResult r = ChiSquareHomogeneityTest(a, b);
  ASSERT_TRUE(r.defined);
  EXPECT_NEAR(r.statistic, 0.0, 1e-9);
  EXPECT_NEAR(r.p_value, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.dof, 2.0);
}

TEST(ChiSquareHomogeneityTest_, ShiftedProportionsRejected) {
  std::vector<int64_t> a{900, 50, 50};
  std::vector<int64_t> b{100, 450, 450};
  TestResult r = ChiSquareHomogeneityTest(a, b);
  ASSERT_TRUE(r.defined);
  EXPECT_LT(r.p_value, 1e-12);
}

TEST(ChiSquareHomogeneityTest_, EmptyCategoriesDropped) {
  std::vector<int64_t> a{10, 0, 20};
  std::vector<int64_t> b{12, 0, 18};
  TestResult r = ChiSquareHomogeneityTest(a, b);
  ASSERT_TRUE(r.defined);
  EXPECT_DOUBLE_EQ(r.dof, 1.0);  // only two live categories
}

TEST(ChiSquareHomogeneityTest_, DegenerateInputsUndefined) {
  EXPECT_FALSE(ChiSquareHomogeneityTest(Counts{}, Counts{}).defined);
  EXPECT_FALSE(ChiSquareHomogeneityTest(Counts{5, 5}, Counts{0, 0}).defined);
  EXPECT_FALSE(ChiSquareHomogeneityTest(Counts{1, 2}, Counts{1, 2, 3}).defined);
  // Single live category: no dof.
  EXPECT_FALSE(ChiSquareHomogeneityTest(Counts{5, 0}, Counts{7, 0}).defined);
}

// ------------------------------------------------------------ aggregation --

TEST(AggregatePValuesTest, MinimumMethod) {
  EXPECT_DOUBLE_EQ(
      AggregatePValues({0.2, 0.01, 0.5}, CorrectionMethod::kMinimum), 0.01);
}

TEST(AggregatePValuesTest, BonferroniScalesByCount) {
  EXPECT_DOUBLE_EQ(
      AggregatePValues({0.01, 0.5, 0.7}, CorrectionMethod::kBonferroni), 0.03);
  // Capped at 1.
  EXPECT_DOUBLE_EQ(AggregatePValues({0.6, 0.9}, CorrectionMethod::kBonferroni), 1.0);
}

TEST(AggregatePValuesTest, SidakBetweenMinAndBonferroni) {
  const std::vector<double> ps{0.02, 0.3, 0.8, 0.9};
  const double p_min = AggregatePValues(ps, CorrectionMethod::kMinimum);
  const double p_sidak = AggregatePValues(ps, CorrectionMethod::kSidak);
  const double p_bonf = AggregatePValues(ps, CorrectionMethod::kBonferroni);
  EXPECT_LE(p_min, p_sidak);
  EXPECT_LE(p_sidak, p_bonf + 1e-12);
}

TEST(AggregatePValuesTest, FisherCombinesIndependentEvidence) {
  // Many moderately small p-values: Fisher aggregates them into a much
  // smaller combined p than any single one.
  const std::vector<double> ps(10, 0.05);
  const double fisher = AggregatePValues(ps, CorrectionMethod::kFisher);
  EXPECT_LT(fisher, 0.001);
  // A single p of 0.05 stays 0.05 under Fisher (chi2(2) tail at -2 ln .05).
  EXPECT_NEAR(AggregatePValues({0.05}, CorrectionMethod::kFisher), 0.05, 1e-10);
}

TEST(AggregatePValuesTest, FisherNullIsNeutral) {
  // All p = 0.5: combined evidence should stay unremarkable.
  const std::vector<double> ps(8, 0.5);
  const double fisher = AggregatePValues(ps, CorrectionMethod::kFisher);
  EXPECT_GT(fisher, 0.2);
  EXPECT_LT(fisher, 0.9);
}

TEST(AggregatePValuesTest, StoufferRewardsConsensus) {
  // Ten p = 0.1 agree: Stouffer's combined p is far below 0.1, while the
  // Bonferroni-style schemes (driven by the minimum) go the other way.
  const std::vector<double> ps(10, 0.1);
  const double stouffer = AggregatePValues(ps, CorrectionMethod::kStouffer);
  EXPECT_LT(stouffer, 0.001);
  EXPECT_GE(AggregatePValues(ps, CorrectionMethod::kBonferroni), 0.99);
}

TEST(AggregatePValuesTest, StoufferSingleIsIdentity) {
  EXPECT_NEAR(AggregatePValues({0.07}, CorrectionMethod::kStouffer), 0.07, 1e-9);
}

TEST(AggregatePValuesTest, StoufferHandlesExtremes) {
  const double p = AggregatePValues({0.0, 1.0}, CorrectionMethod::kStouffer);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
}

TEST(AggregatePValuesTest, EmptyIsOne) {
  EXPECT_DOUBLE_EQ(AggregatePValues({}, CorrectionMethod::kBonferroni), 1.0);
}

TEST(AggregatePValuesTest, SingleTestUnchanged) {
  for (auto m : {CorrectionMethod::kMinimum, CorrectionMethod::kBonferroni,
                 CorrectionMethod::kSidak}) {
    EXPECT_NEAR(AggregatePValues({0.04}, m), 0.04, 1e-12);
  }
}

TEST(BonferroniAdjustTest, InPlaceAdjustment) {
  std::vector<double> ps{0.01, 0.04, 0.5};
  BonferroniAdjust(&ps);
  EXPECT_DOUBLE_EQ(ps[0], 0.03);
  EXPECT_DOUBLE_EQ(ps[1], 0.12);
  EXPECT_DOUBLE_EQ(ps[2], 1.0);
}

}  // namespace
}  // namespace ziggy
