// Two-sample hypothesis tests and multiple-comparison corrections — the
// machinery of Ziggy's post-processing stage (paper §3): "it tests the
// significance of the Zig-Components separately, using asymptotic bounds
// from the literature. Then it aggregates the confidence scores."

#ifndef ZIGGY_STATS_TESTS_H_
#define ZIGGY_STATS_TESTS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "stats/descriptive.h"

namespace ziggy {

/// \brief Outcome of a hypothesis test.
struct TestResult {
  double statistic = 0.0;
  double p_value = 1.0;
  double dof = 0.0;     ///< degrees of freedom where applicable
  bool defined = false; ///< false when the test could not be computed
};

/// \brief A test's statistic and degrees of freedom: everything but its
/// tail probability, which PValue() evaluates on demand. Splitting the two
/// lets the component table defer the costly tail integrals to the few
/// components an explanation actually reads.
struct TestStatistic {
  /// Null distribution of the statistic.
  enum class NullDistribution : uint8_t {
    kFixed,      ///< undefined or degenerate outcome: p-value is `fixed_p`
    kStudentT,   ///< two-sided Student t with `dof`
    kF,          ///< two-sided F with (`dof`, `dof2`)
    kChiSquare,  ///< upper-tail chi-square with `dof`
  };
  NullDistribution null_distribution = NullDistribution::kFixed;
  double statistic = 0.0;
  double dof = 0.0;      ///< degrees of freedom (numerator dof for F)
  double dof2 = 0.0;     ///< denominator dof (F only)
  double fixed_p = 1.0;  ///< p-value when `null_distribution` is kFixed
  bool defined = false;  ///< false when the test could not be computed

  /// Tail probability of the statistic under its null distribution.
  double PValue() const;
  /// The complete outcome: statistic, dof, PValue() and `defined`.
  TestResult Resolve() const;
};

/// \brief Statistic of Welch's unequal-variance two-sample t test.
TestStatistic WelchTStatistic(const NumericStats& a, const NumericStats& b);

/// \brief Statistic of the two-sided F test of variance equality.
TestStatistic VarianceFStatistic(const NumericStats& a, const NumericStats& b);

/// \brief Statistic of the chi-square test of homogeneity between two count
/// vectors over the same categories. Categories empty on both sides are
/// dropped.
TestStatistic ChiSquareHomogeneityStatistic(std::span<const int64_t> a,
                                            std::span<const int64_t> b);

/// \brief Welch's unequal-variance two-sample t test on summaries.
TestResult WelchTTest(const NumericStats& a, const NumericStats& b);

/// \brief F test of variance equality (two-sided).
TestResult VarianceFTest(const NumericStats& a, const NumericStats& b);

/// \brief Fisher z test for equality of two correlations.
TestResult CorrelationZTest(double r_a, int64_t n_a, double r_b, int64_t n_b);

/// \brief Chi-square test of homogeneity between two count vectors over the
/// same categories. Categories empty on both sides are dropped.
TestResult ChiSquareHomogeneityTest(std::span<const int64_t> a,
                                    std::span<const int64_t> b);

/// \brief Multiple-testing correction schemes for aggregating per-component
/// p-values into a per-view confidence (paper §3: "it retains the lowest
/// value, or it uses more advanced aggregation schemes such as the
/// Bonferroni correction").
enum class CorrectionMethod {
  kMinimum,    ///< min(p): optimistic, no correction
  kBonferroni, ///< min(1, m * min(p))
  kSidak,      ///< 1 - (1 - min(p))^m: exact under independence
  kStouffer,   ///< Stouffer's z: Phi(sum z_i / sqrt(m)), rewards consensus
  kFisher,     ///< Fisher's combined test: -2 sum ln p ~ chi2(2m)
};

/// \brief Aggregates p-values into a single corrected p-value.
double AggregatePValues(const std::vector<double>& p_values, CorrectionMethod method);

/// \brief Bonferroni-adjusts each p-value in place: p -> min(1, m*p).
void BonferroniAdjust(std::vector<double>* p_values);

}  // namespace ziggy

#endif  // ZIGGY_STATS_TESTS_H_
