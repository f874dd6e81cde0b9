// Zig-Components: the small, verifiable indicators of distributional
// difference that Ziggy aggregates into the Zig-Dissimilarity (paper §2.2).
//
// Each component compares the user's selection ("inside") against its
// complement ("outside") on one column or one pair of columns:
//
//   kMeanShift          difference of means, standardized (Hedges' g)
//   kDispersionShift    log ratio of standard deviations
//   kCorrelationShift   difference of correlation coefficients (Fisher z)
//   kFrequencyShift     categorical frequency shift (Cohen's w)
//   kAssociationShift   difference of correlation ratios eta (mixed pair)
//   kContingencyShift   difference of Cramér's V (categorical pair)
//   kRankShift          ordinal dominance: Cliff's delta via Mann-Whitney U
//   kDistributionShift  total-variation distance of aligned histograms
//
// The first three are the components of paper Figure 3; kFrequencyShift,
// kAssociationShift and kContingencyShift are the categorical analogues
// the paper defers to the full paper; kRankShift and kDistributionShift
// are the robust / nonparametric extensions ("other examples of
// Zig-Components" from the effect-size literature, Hedges & Olkin 1985;
// Cliff 1993). They catch differences the moment-based components miss
// (heavy tails, multi-modality) at the cost of extra preparation work, and
// can be disabled in ComponentBuildOptions.

#ifndef ZIGGY_ZIG_COMPONENT_H_
#define ZIGGY_ZIG_COMPONENT_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "stats/effect_size.h"
#include "stats/tests.h"

namespace ziggy {

/// \brief The kind of distributional difference a component measures.
enum class ComponentKind : uint8_t {
  kMeanShift = 0,
  kDispersionShift = 1,
  kCorrelationShift = 2,
  kFrequencyShift = 3,
  kAssociationShift = 4,
  kContingencyShift = 5,
  kRankShift = 6,
  kDistributionShift = 7,
};

inline constexpr size_t kNumComponentKinds = 8;

/// \brief Stable display name ("mean-shift", ...).
const char* ComponentKindToString(ComponentKind kind);

/// \brief True for kinds defined on a pair of columns.
bool IsPairKind(ComponentKind kind);

/// \brief Sentinel for "no second column".
inline constexpr size_t kNoColumn = std::numeric_limits<size_t>::max();

/// \brief One computed Zig-Component.
struct ZigComponent {
  ComponentKind kind = ComponentKind::kMeanShift;
  size_t col_a = 0;
  size_t col_b = kNoColumn;  ///< kNoColumn for unary kinds

  /// Signed effect size with asymptotic standard error.
  EffectSize effect;

  /// Raw side-by-side descriptor (mean / stddev / correlation / eta / V /
  /// total-variation distance, depending on kind) for explanations.
  double inside_value = 0.0;
  double outside_value = 0.0;
  int64_t inside_n = 0;
  int64_t outside_n = 0;

  /// Statistic of the significance test of the moment and count kinds
  /// (mean, dispersion, frequency and distribution shift). The other kinds
  /// are tested through `effect`.
  TestStatistic test;

  /// Most over-represented category (kFrequencyShift; empty otherwise).
  std::string top_category;
  /// Bounds [lo, hi) of the most over-represented histogram bin
  /// (kDistributionShift only).
  double top_bin_lo = 0.0;
  double top_bin_hi = 0.0;

  /// |effect| magnitude used for scoring (0 when undefined).
  double Magnitude() const { return effect.defined ? std::fabs(effect.value) : 0.0; }

  /// Two-sided p-value of the component's significance test. Evaluated on
  /// each call: ranking reads only magnitudes, so the tail integrals are
  /// paid by post-processing for the views that survive.
  double p_value() const;

  /// Human detail for explanations: the most over-represented category
  /// (frequency shift) or value range (distribution shift), else empty.
  std::string detail() const;
};

/// \brief User-tunable weights of the Zig-Dissimilarity aggregation
/// ("the weights in the final sum are defined by the user", paper §2.2).
struct ZigWeights {
  double mean_shift = 1.0;
  double dispersion_shift = 1.0;
  double correlation_shift = 1.0;
  double frequency_shift = 1.0;
  double association_shift = 1.0;
  double contingency_shift = 1.0;
  double rank_shift = 1.0;
  double distribution_shift = 1.0;

  double ForKind(ComponentKind kind) const;
};

}  // namespace ziggy

#endif  // ZIGGY_ZIG_COMPONENT_H_
