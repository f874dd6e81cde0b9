#include "stats/tests.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "stats/distributions.h"
#include "stats/effect_size.h"

namespace ziggy {

double TestStatistic::PValue() const {
  switch (null_distribution) {
    case NullDistribution::kFixed:
      return fixed_p;
    case NullDistribution::kStudentT:
      return TwoSidedTPValue(statistic, dof);
    case NullDistribution::kF: {
      const double cdf = FCdf(statistic, dof, dof2);
      return std::clamp(2.0 * std::min(cdf, 1.0 - cdf), 0.0, 1.0);
    }
    case NullDistribution::kChiSquare:
      return ChiSquarePValue(statistic, dof);
  }
  return fixed_p;
}

TestResult TestStatistic::Resolve() const {
  TestResult r;
  r.statistic = statistic;
  r.p_value = PValue();
  r.dof = dof;
  r.defined = defined;
  return r;
}

TestStatistic WelchTStatistic(const NumericStats& a, const NumericStats& b) {
  TestStatistic r;
  if (a.count < 2 || b.count < 2) return r;
  const double na = static_cast<double>(a.count);
  const double nb = static_cast<double>(b.count);
  const double va = a.Variance() / na;
  const double vb = b.Variance() / nb;
  const double denom = va + vb;
  r.defined = true;
  if (denom <= 0.0) {
    // Zero variance on both sides: distributions are point masses.
    r.statistic = (a.mean == b.mean) ? 0.0 : std::copysign(1e9, a.mean - b.mean);
    r.fixed_p = (a.mean == b.mean) ? 1.0 : 0.0;
    r.dof = na + nb - 2.0;
    return r;
  }
  r.null_distribution = TestStatistic::NullDistribution::kStudentT;
  r.statistic = (a.mean - b.mean) / std::sqrt(denom);
  // Welch–Satterthwaite degrees of freedom.
  r.dof = denom * denom /
          (va * va / (na - 1.0) + vb * vb / (nb - 1.0));
  return r;
}

TestStatistic VarianceFStatistic(const NumericStats& a, const NumericStats& b) {
  TestStatistic r;
  if (a.count < 2 || b.count < 2) return r;
  const double va = a.Variance();
  const double vb = b.Variance();
  r.defined = true;
  if (va <= 0.0 || vb <= 0.0) {
    r.fixed_p = (va == vb) ? 1.0 : 0.0;
    return r;
  }
  r.null_distribution = TestStatistic::NullDistribution::kF;
  r.statistic = va / vb;
  r.dof = static_cast<double>(a.count) - 1.0;
  r.dof2 = static_cast<double>(b.count) - 1.0;
  return r;
}

TestResult WelchTTest(const NumericStats& a, const NumericStats& b) {
  return WelchTStatistic(a, b).Resolve();
}

TestResult VarianceFTest(const NumericStats& a, const NumericStats& b) {
  return VarianceFStatistic(a, b).Resolve();
}

TestResult CorrelationZTest(double r_a, int64_t n_a, double r_b, int64_t n_b) {
  TestResult r;
  EffectSize e = CorrelationDifference(r_a, n_a, r_b, n_b);
  if (!e.defined) return r;
  r.defined = true;
  r.statistic = e.ZStatistic();
  r.p_value = e.PValue();
  return r;
}

TestStatistic ChiSquareHomogeneityStatistic(std::span<const int64_t> a,
                                            std::span<const int64_t> b) {
  TestStatistic r;
  if (a.size() != b.size() || a.empty()) return r;
  int64_t na = 0;
  int64_t nb = 0;
  for (int64_t v : a) na += v;
  for (int64_t v : b) nb += v;
  if (na == 0 || nb == 0) return r;
  const double n = static_cast<double>(na + nb);
  double chi2 = 0.0;
  size_t used_categories = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double col = static_cast<double>(a[i] + b[i]);
    if (col == 0.0) continue;  // category absent from both samples
    ++used_categories;
    const double ea = static_cast<double>(na) * col / n;
    const double eb = static_cast<double>(nb) * col / n;
    const double da = static_cast<double>(a[i]) - ea;
    const double db = static_cast<double>(b[i]) - eb;
    chi2 += da * da / ea + db * db / eb;
  }
  if (used_categories < 2) return r;
  r.defined = true;
  r.null_distribution = TestStatistic::NullDistribution::kChiSquare;
  r.statistic = chi2;
  r.dof = static_cast<double>(used_categories - 1);
  return r;
}

TestResult ChiSquareHomogeneityTest(std::span<const int64_t> a,
                                    std::span<const int64_t> b) {
  return ChiSquareHomogeneityStatistic(a, b).Resolve();
}

double AggregatePValues(const std::vector<double>& p_values, CorrectionMethod method) {
  if (p_values.empty()) return 1.0;
  double min_p = 1.0;
  for (double p : p_values) min_p = std::min(min_p, p);
  const double m = static_cast<double>(p_values.size());
  switch (method) {
    case CorrectionMethod::kMinimum:
      return min_p;
    case CorrectionMethod::kBonferroni:
      return std::min(1.0, m * min_p);
    case CorrectionMethod::kSidak:
      // P(min p <= x under m independent tests) = 1 - (1 - x)^m.
      return 1.0 - std::pow(1.0 - min_p, m);
    case CorrectionMethod::kStouffer: {
      // Combine one-sided evidence: z_i = Phi^-1(1 - p_i), then
      // Z = sum z_i / sqrt(m) is standard normal under H0. Unlike the
      // min-based schemes this rewards many moderately significant
      // components over one extreme one.
      double z_sum = 0.0;
      for (double p : p_values) {
        z_sum += NormalQuantile(1.0 - std::clamp(p, 1e-15, 1.0 - 1e-15));
      }
      return 1.0 - NormalCdf(z_sum / std::sqrt(m));
    }
    case CorrectionMethod::kFisher: {
      // -2 sum ln p ~ chi-square with 2m dof under H0 (independent tests).
      double stat = 0.0;
      for (double p : p_values) {
        stat += -2.0 * std::log(std::max(p, 1e-300));
      }
      return ChiSquarePValue(stat, 2.0 * m);
    }
  }
  return min_p;
}

void BonferroniAdjust(std::vector<double>* p_values) {
  ZIGGY_CHECK(p_values != nullptr);
  const double m = static_cast<double>(p_values->size());
  for (double& p : *p_values) p = std::min(1.0, m * p);
}

}  // namespace ziggy
