// Unit tests for stats/effect_size.h (Hedges & Olkin effect sizes).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "stats/effect_size.h"

namespace ziggy {
namespace {

NumericStats StatsOf(const std::vector<double>& v) {
  NumericStats s;
  for (double x : v) s.Add(x);
  return s;
}

NumericStats SampledNormal(Rng* rng, int n, double mean, double sd) {
  NumericStats s;
  for (int i = 0; i < n; ++i) s.Add(rng->Normal(mean, sd));
  return s;
}

// ------------------------------------------- standardized mean difference --

TEST(MeanDifferenceTest, SignConvention) {
  Rng rng(1);
  NumericStats inside = SampledNormal(&rng, 200, 5.0, 1.0);
  NumericStats outside = SampledNormal(&rng, 200, 3.0, 1.0);
  EffectSize e = StandardizedMeanDifference(inside, outside);
  ASSERT_TRUE(e.defined);
  EXPECT_GT(e.value, 0.0);  // inside larger -> positive
  EffectSize flipped = StandardizedMeanDifference(outside, inside);
  EXPECT_LT(flipped.value, 0.0);
}

TEST(MeanDifferenceTest, MagnitudeApproximatesCohensD) {
  Rng rng(2);
  // True d = (7 - 5) / 1 = 2.
  NumericStats inside = SampledNormal(&rng, 5000, 7.0, 1.0);
  NumericStats outside = SampledNormal(&rng, 5000, 5.0, 1.0);
  EffectSize e = StandardizedMeanDifference(inside, outside);
  EXPECT_NEAR(e.value, 2.0, 0.1);
}

TEST(MeanDifferenceTest, HedgesCorrectionShrinksSmallSamples) {
  // With equal summary moments, small-n g must be smaller than large-n g
  // (J < 1 and increasing in dof).
  NumericStats small_in = StatsOf({1, 2, 3});
  NumericStats small_out = StatsOf({4, 5, 6});
  NumericStats big_in;
  NumericStats big_out;
  for (int rep = 0; rep < 100; ++rep) {
    for (double v : {1.0, 2.0, 3.0}) big_in.Add(v);
    for (double v : {4.0, 5.0, 6.0}) big_out.Add(v);
  }
  const double g_small = std::fabs(StandardizedMeanDifference(small_in, small_out).value);
  const double g_big = std::fabs(StandardizedMeanDifference(big_in, big_out).value);
  EXPECT_LT(g_small, g_big);
}

TEST(MeanDifferenceTest, UndefinedOnTinySamples) {
  NumericStats one = StatsOf({1.0});
  NumericStats many = StatsOf({1, 2, 3});
  EXPECT_FALSE(StandardizedMeanDifference(one, many).defined);
  EXPECT_EQ(StandardizedMeanDifference(one, many).PValue(), 1.0);
}

TEST(MeanDifferenceTest, ZeroVarianceDegenerateCases) {
  NumericStats a = StatsOf({2, 2, 2});
  NumericStats b = StatsOf({2, 2, 2});
  EXPECT_FALSE(StandardizedMeanDifference(a, b).defined);  // identical points
  NumericStats c = StatsOf({3, 3, 3});
  EffectSize e = StandardizedMeanDifference(c, a);
  ASSERT_TRUE(e.defined);
  EXPECT_GT(e.value, 1e5);  // saturated effect
}

TEST(MeanDifferenceTest, StdErrorShrinksWithN) {
  Rng rng(3);
  NumericStats small_in = SampledNormal(&rng, 20, 1.0, 1.0);
  NumericStats small_out = SampledNormal(&rng, 20, 0.0, 1.0);
  NumericStats big_in = SampledNormal(&rng, 2000, 1.0, 1.0);
  NumericStats big_out = SampledNormal(&rng, 2000, 0.0, 1.0);
  EXPECT_GT(StandardizedMeanDifference(small_in, small_out).std_error,
            StandardizedMeanDifference(big_in, big_out).std_error);
}

// ------------------------------------------------------- dispersion shift --

TEST(LogStdDevRatioTest, KnownRatio) {
  Rng rng(4);
  NumericStats inside = SampledNormal(&rng, 4000, 0.0, 2.0);
  NumericStats outside = SampledNormal(&rng, 4000, 0.0, 1.0);
  EffectSize e = LogStdDevRatio(inside, outside);
  ASSERT_TRUE(e.defined);
  EXPECT_NEAR(e.value, std::log(2.0), 0.05);
}

TEST(LogStdDevRatioTest, EqualDispersionIsNearZero) {
  Rng rng(5);
  NumericStats a = SampledNormal(&rng, 3000, 5.0, 1.5);
  NumericStats b = SampledNormal(&rng, 3000, -5.0, 1.5);  // mean is irrelevant
  EXPECT_NEAR(LogStdDevRatio(a, b).value, 0.0, 0.06);
}

TEST(LogStdDevRatioTest, BothZeroVarianceUndefined) {
  NumericStats a = StatsOf({1, 1, 1});
  NumericStats b = StatsOf({2, 2, 2});
  EXPECT_FALSE(LogStdDevRatio(a, b).defined);
}

TEST(LogStdDevRatioTest, OneSideZeroVarianceSaturates) {
  NumericStats a = StatsOf({1, 2, 3});
  NumericStats b = StatsOf({2, 2, 2});
  EffectSize e = LogStdDevRatio(a, b);
  ASSERT_TRUE(e.defined);
  EXPECT_GT(e.value, 1e5);
}

// ------------------------------------------------------ correlation shift --

TEST(FisherZTest, KnownValuesAndClamping) {
  EXPECT_NEAR(FisherZ(0.0), 0.0, 1e-15);
  EXPECT_NEAR(FisherZ(0.5), 0.5493061443340549, 1e-12);
  EXPECT_TRUE(std::isfinite(FisherZ(1.0)));
  EXPECT_TRUE(std::isfinite(FisherZ(-1.0)));
}

TEST(CorrelationDifferenceTest, SignAndScale) {
  EffectSize e = CorrelationDifference(0.8, 500, 0.2, 500);
  ASSERT_TRUE(e.defined);
  EXPECT_NEAR(e.value, FisherZ(0.8) - FisherZ(0.2), 1e-12);
  EXPECT_NEAR(e.std_error, std::sqrt(2.0 / 497.0), 1e-12);
  EXPECT_LT(e.PValue(), 1e-6);
}

TEST(CorrelationDifferenceTest, EqualCorrelationsNotSignificant) {
  EffectSize e = CorrelationDifference(0.5, 100, 0.5, 100);
  ASSERT_TRUE(e.defined);
  EXPECT_DOUBLE_EQ(e.value, 0.0);
  EXPECT_DOUBLE_EQ(e.PValue(), 1.0);
}

TEST(CorrelationDifferenceTest, UndefinedBelowFourSamples) {
  EXPECT_FALSE(CorrelationDifference(0.9, 3, 0.1, 100).defined);
  EXPECT_FALSE(CorrelationDifference(0.9, 100, 0.1, 3).defined);
}

// -------------------------------------------------------- frequency shift --

TEST(FrequencyShiftTest, IdenticalDistributionsSmall) {
  std::vector<int64_t> a{100, 200, 300};
  EffectSize e = FrequencyShift(a, a);
  ASSERT_TRUE(e.defined);
  EXPECT_NEAR(e.value, 0.0, 1e-9);
}

TEST(FrequencyShiftTest, StrongShiftIsLarge) {
  std::vector<int64_t> inside{900, 50, 50};
  std::vector<int64_t> outside{100, 450, 450};
  EffectSize e = FrequencyShift(inside, outside);
  ASSERT_TRUE(e.defined);
  EXPECT_GT(e.value, 1.0);
  EXPECT_LT(e.PValue(), 1e-10);
}

TEST(FrequencyShiftTest, UndefinedOnMismatchedOrTinyInputs) {
  EXPECT_FALSE(FrequencyShift(std::vector<int64_t>{1, 2},
                              std::vector<int64_t>{1, 2, 3})
                   .defined);
  EXPECT_FALSE(FrequencyShift({}, {}).defined);
  EXPECT_FALSE(FrequencyShift(std::vector<int64_t>{1, 0},
                              std::vector<int64_t>{500, 500})
                   .defined);
}

TEST(FrequencyShiftTest, SmoothingHandlesEmptyOutsideCategory) {
  // Outside has zero mass on category 2; smoothing must keep w finite.
  std::vector<int64_t> inside{10, 10, 80};
  std::vector<int64_t> outside{50, 50, 0};
  EffectSize e = FrequencyShift(inside, outside);
  ASSERT_TRUE(e.defined);
  EXPECT_TRUE(std::isfinite(e.value));
  EXPECT_GT(e.value, 0.5);
}

// ------------------------------------------------------------ Cliff's delta --

TEST(CliffsDeltaTest, FullDominance) {
  // Every inside value beats every outside value: U = n1*n2, delta = 1.
  EffectSize e = CliffsDelta(100.0 * 200.0, 100, 200);
  ASSERT_TRUE(e.defined);
  EXPECT_DOUBLE_EQ(e.value, 1.0);
  EXPECT_LT(e.PValue(), 1e-10);
}

TEST(CliffsDeltaTest, NoDominance) {
  EffectSize e = CliffsDelta(0.5 * 100.0 * 200.0, 100, 200);
  ASSERT_TRUE(e.defined);
  EXPECT_DOUBLE_EQ(e.value, 0.0);
  EXPECT_DOUBLE_EQ(e.PValue(), 1.0);
}

TEST(CliffsDeltaTest, StandardErrorMatchesMannWhitneyApprox) {
  EffectSize e = CliffsDelta(0.0, 50, 70);
  ASSERT_TRUE(e.defined);
  EXPECT_NEAR(e.std_error, std::sqrt((50.0 + 70.0 + 1.0) / (3.0 * 50.0 * 70.0)), 1e-12);
  EXPECT_DOUBLE_EQ(e.value, -1.0);
}

TEST(CliffsDeltaTest, UndefinedOnTinySamples) {
  EXPECT_FALSE(CliffsDelta(1.0, 1, 100).defined);
  EXPECT_FALSE(CliffsDelta(1.0, 100, 1).defined);
}

// -------------------------------------------------------- DistributionShift --

TEST(DistributionShiftEffectTest, ValueIsClampedTv) {
  EffectSize e = DistributionShift(0.4, 16, 100, 900);
  ASSERT_TRUE(e.defined);
  EXPECT_DOUBLE_EQ(e.value, 0.4);
  EXPECT_GT(e.std_error, 0.0);
  EXPECT_DOUBLE_EQ(DistributionShift(1.7, 16, 100, 900).value, 1.0);
}

TEST(DistributionShiftEffectTest, UndefinedOnDegenerateInputs) {
  EXPECT_FALSE(DistributionShift(0.4, 1, 100, 900).defined);
  EXPECT_FALSE(DistributionShift(0.4, 16, 1, 900).defined);
}

// --------------------------------------------------------------- EffectSize --

TEST(EffectSizeTest, ZStatisticAndPValueConsistency) {
  EffectSize e;
  e.defined = true;
  e.value = 1.96;
  e.std_error = 1.0;
  EXPECT_NEAR(e.ZStatistic(), 1.96, 1e-12);
  EXPECT_NEAR(e.PValue(), 0.05, 0.001);
}

TEST(EffectSizeTest, UndefinedYieldsNeutralOutputs) {
  EffectSize e;
  EXPECT_DOUBLE_EQ(e.ZStatistic(), 0.0);
  EXPECT_DOUBLE_EQ(e.PValue(), 1.0);
}

// Property: p-values are smaller for larger samples at fixed true effect.
class EffectPowerProperty : public ::testing::TestWithParam<int> {};

TEST_P(EffectPowerProperty, PValueShrinksWithSampleSize) {
  const int n = GetParam();
  Rng rng(42);
  NumericStats in_small = SampledNormal(&rng, n, 0.4, 1.0);
  NumericStats out_small = SampledNormal(&rng, n, 0.0, 1.0);
  NumericStats in_big = SampledNormal(&rng, n * 16, 0.4, 1.0);
  NumericStats out_big = SampledNormal(&rng, n * 16, 0.0, 1.0);
  const double p_small = StandardizedMeanDifference(in_small, out_small).PValue();
  const double p_big = StandardizedMeanDifference(in_big, out_big).PValue();
  EXPECT_LT(p_big, p_small + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EffectPowerProperty, ::testing::Values(30, 60, 120));

}  // namespace
}  // namespace ziggy
