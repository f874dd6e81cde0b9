// Effect sizes from the meta-analysis literature (Hedges & Olkin 1985) —
// the primitives behind Ziggy's Zig-Components (paper §2.2). Each effect
// size comes with its asymptotic standard error, from which the
// post-processing stage derives significance (paper §3).

#ifndef ZIGGY_STATS_EFFECT_SIZE_H_
#define ZIGGY_STATS_EFFECT_SIZE_H_

#include <cstdint>
#include <span>

#include "stats/descriptive.h"

namespace ziggy {

/// \brief An effect size estimate with its asymptotic standard error.
struct EffectSize {
  double value = 0.0;     ///< the (signed) effect estimate
  double std_error = 0.0; ///< asymptotic SE; 0 when undefined
  bool defined = false;   ///< false when samples are too small/degenerate

  /// z statistic value/std_error (0 when undefined).
  double ZStatistic() const;
  /// Two-sided p-value from the normal approximation (1 when undefined).
  double PValue() const;
};

/// \brief Standardized mean difference: Cohen's d with Hedges' small-sample
/// correction (Hedges' g). Positive when `inside` has the larger mean.
EffectSize StandardizedMeanDifference(const NumericStats& inside,
                                      const NumericStats& outside);

/// \brief Dispersion difference: log ratio of sample standard deviations
/// ln(s_in / s_out), SE = sqrt(1/(2(n_in-1)) + 1/(2(n_out-1))).
EffectSize LogStdDevRatio(const NumericStats& inside, const NumericStats& outside);

/// \brief Correlation difference via Fisher z transform:
/// z(r_in) - z(r_out), SE = sqrt(1/(n_in-3) + 1/(n_out-3)).
EffectSize CorrelationDifference(double r_inside, int64_t n_inside, double r_outside,
                                 int64_t n_outside);

/// \brief Categorical frequency shift: Cohen's w computed from the inside
/// distribution against the outside distribution used as the reference,
/// w = sqrt(sum (p_i - q_i)^2 / q_i); SE approximated as sqrt(1/n_in).
EffectSize FrequencyShift(std::span<const int64_t> inside_counts,
                          std::span<const int64_t> outside_counts);

/// \brief Fisher's variance-stabilizing transform atanh(r), clamped away
/// from the poles.
double FisherZ(double r);

/// \brief Cliff's delta, the ordinal dominance effect size, from a
/// Mann-Whitney U statistic: delta = 2U/(n_in * n_out) - 1, in [-1, 1].
/// `u_statistic` counts (inside, outside) pairs where inside > outside,
/// with ties counted 1/2. The standard error is the H0 normal
/// approximation of U rescaled to delta: sqrt((n_in + n_out + 1) /
/// (3 n_in n_out)).
EffectSize CliffsDelta(double u_statistic, int64_t n_inside, int64_t n_outside);

/// \brief Histogram (or any discrete-distribution) shift: the effect value
/// is the total variation distance in [0, 1]; the standard error uses the
/// same chi-square-style H0 scale as FrequencyShift.
EffectSize DistributionShift(double tv_distance, size_t num_bins, int64_t n_inside,
                             int64_t n_outside);

}  // namespace ziggy

#endif  // ZIGGY_STATS_EFFECT_SIZE_H_
