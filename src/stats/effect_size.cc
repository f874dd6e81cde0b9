#include "stats/effect_size.h"

#include <algorithm>
#include <cmath>

#include "stats/distributions.h"

namespace ziggy {

double EffectSize::ZStatistic() const {
  if (!defined || std_error <= 0.0) return 0.0;
  return value / std_error;
}

double EffectSize::PValue() const {
  if (!defined || std_error <= 0.0) return 1.0;
  return TwoSidedNormalPValue(ZStatistic());
}

EffectSize StandardizedMeanDifference(const NumericStats& inside,
                                      const NumericStats& outside) {
  EffectSize e;
  const double n1 = static_cast<double>(inside.count);
  const double n2 = static_cast<double>(outside.count);
  if (inside.count < 2 || outside.count < 2) return e;
  const double pooled_var =
      ((n1 - 1.0) * inside.Variance() + (n2 - 1.0) * outside.Variance()) /
      (n1 + n2 - 2.0);
  if (pooled_var <= 0.0) {
    // Degenerate dispersion: means either agree exactly (no effect) or
    // differ with zero variance (infinite standardized effect). Report the
    // raw sign with a huge magnitude so ranking still works.
    if (inside.mean == outside.mean) return e;
    e.defined = true;
    e.value = (inside.mean > outside.mean ? 1.0 : -1.0) * 1e6;
    e.std_error = 0.0;
    return e;
  }
  const double d = (inside.mean - outside.mean) / std::sqrt(pooled_var);
  // Hedges' small-sample bias correction J(m) ≈ 1 - 3/(4m - 1), m = dof.
  const double m = n1 + n2 - 2.0;
  const double j = 1.0 - 3.0 / (4.0 * m - 1.0);
  const double g = j * d;
  e.defined = true;
  e.value = g;
  // Hedges & Olkin variance of g: (n1+n2)/(n1 n2) + g^2 / (2(n1+n2)).
  e.std_error =
      std::sqrt((n1 + n2) / (n1 * n2) + g * g / (2.0 * (n1 + n2)));
  return e;
}

EffectSize LogStdDevRatio(const NumericStats& inside, const NumericStats& outside) {
  EffectSize e;
  if (inside.count < 2 || outside.count < 2) return e;
  const double s1 = inside.StdDev();
  const double s2 = outside.StdDev();
  if (s1 <= 0.0 || s2 <= 0.0) {
    if (s1 == s2) return e;  // both zero: no dispersion difference
    e.defined = true;
    e.value = (s1 > s2 ? 1.0 : -1.0) * 1e6;
    e.std_error = 0.0;
    return e;
  }
  e.defined = true;
  e.value = std::log(s1 / s2);
  const double n1 = static_cast<double>(inside.count);
  const double n2 = static_cast<double>(outside.count);
  e.std_error = std::sqrt(0.5 / (n1 - 1.0) + 0.5 / (n2 - 1.0));
  return e;
}

double FisherZ(double r) {
  r = std::clamp(r, -0.999999, 0.999999);
  return std::atanh(r);
}

EffectSize CorrelationDifference(double r_inside, int64_t n_inside, double r_outside,
                                 int64_t n_outside) {
  EffectSize e;
  if (n_inside < 4 || n_outside < 4) return e;
  e.defined = true;
  e.value = FisherZ(r_inside) - FisherZ(r_outside);
  e.std_error = std::sqrt(1.0 / (static_cast<double>(n_inside) - 3.0) +
                          1.0 / (static_cast<double>(n_outside) - 3.0));
  return e;
}

EffectSize CliffsDelta(double u_statistic, int64_t n_inside, int64_t n_outside) {
  EffectSize e;
  if (n_inside < 2 || n_outside < 2) return e;
  const double n1 = static_cast<double>(n_inside);
  const double n2 = static_cast<double>(n_outside);
  e.defined = true;
  e.value = std::clamp(2.0 * u_statistic / (n1 * n2) - 1.0, -1.0, 1.0);
  e.std_error = std::sqrt((n1 + n2 + 1.0) / (3.0 * n1 * n2));
  return e;
}

EffectSize DistributionShift(double tv_distance, size_t num_bins, int64_t n_inside,
                             int64_t n_outside) {
  EffectSize e;
  if (n_inside < 2 || n_outside < 2 || num_bins < 2) return e;
  e.defined = true;
  e.value = std::clamp(tv_distance, 0.0, 1.0);
  const double n_h = 2.0 / (1.0 / static_cast<double>(n_inside) +
                            1.0 / static_cast<double>(n_outside));
  e.std_error = std::sqrt(static_cast<double>(num_bins - 1) / n_h);
  return e;
}

EffectSize FrequencyShift(std::span<const int64_t> inside_counts,
                          std::span<const int64_t> outside_counts) {
  EffectSize e;
  if (inside_counts.size() != outside_counts.size() || inside_counts.empty()) return e;
  int64_t n_in = 0;
  int64_t n_out = 0;
  for (int64_t c : inside_counts) n_in += c;
  for (int64_t c : outside_counts) n_out += c;
  if (n_in < 2 || n_out < 2) return e;
  // Laplace smoothing keeps the reference distribution strictly positive.
  const double alpha = 0.5;
  const double k = static_cast<double>(inside_counts.size());
  double w2 = 0.0;
  for (size_t i = 0; i < inside_counts.size(); ++i) {
    const double p = (static_cast<double>(inside_counts[i]) + alpha) /
                     (static_cast<double>(n_in) + alpha * k);
    const double q = (static_cast<double>(outside_counts[i]) + alpha) /
                     (static_cast<double>(n_out) + alpha * k);
    const double diff = p - q;
    w2 += diff * diff / q;
  }
  e.defined = true;
  e.value = std::sqrt(w2);
  // Asymptotic scale of w under H0 is ~sqrt((k-1)/n); use the harmonic
  // sample size so that both small sides count.
  const double n_h = 2.0 / (1.0 / static_cast<double>(n_in) +
                            1.0 / static_cast<double>(n_out));
  e.std_error = std::sqrt(std::max(k - 1.0, 1.0) / n_h);
  return e;
}

}  // namespace ziggy
