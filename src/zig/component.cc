#include "zig/component.h"

#include "common/string_util.h"

namespace ziggy {

const char* ComponentKindToString(ComponentKind kind) {
  switch (kind) {
    case ComponentKind::kMeanShift:
      return "mean-shift";
    case ComponentKind::kDispersionShift:
      return "dispersion-shift";
    case ComponentKind::kCorrelationShift:
      return "correlation-shift";
    case ComponentKind::kFrequencyShift:
      return "frequency-shift";
    case ComponentKind::kAssociationShift:
      return "association-shift";
    case ComponentKind::kContingencyShift:
      return "contingency-shift";
    case ComponentKind::kRankShift:
      return "rank-shift";
    case ComponentKind::kDistributionShift:
      return "distribution-shift";
  }
  return "?";
}

bool IsPairKind(ComponentKind kind) {
  return kind == ComponentKind::kCorrelationShift ||
         kind == ComponentKind::kAssociationShift ||
         kind == ComponentKind::kContingencyShift;
}

double ZigComponent::p_value() const {
  switch (kind) {
    case ComponentKind::kMeanShift:
    case ComponentKind::kDispersionShift:
    case ComponentKind::kFrequencyShift:
    case ComponentKind::kDistributionShift:
      return test.PValue();
    default:
      return effect.PValue();
  }
}

std::string ZigComponent::detail() const {
  switch (kind) {
    case ComponentKind::kFrequencyShift:
      return top_category;
    case ComponentKind::kDistributionShift:
      return "[" + FormatDouble(top_bin_lo) + ", " + FormatDouble(top_bin_hi) +
             ")";
    default:
      return "";
  }
}

double ZigWeights::ForKind(ComponentKind kind) const {
  switch (kind) {
    case ComponentKind::kMeanShift:
      return mean_shift;
    case ComponentKind::kDispersionShift:
      return dispersion_shift;
    case ComponentKind::kCorrelationShift:
      return correlation_shift;
    case ComponentKind::kFrequencyShift:
      return frequency_shift;
    case ComponentKind::kAssociationShift:
      return association_shift;
    case ComponentKind::kContingencyShift:
      return contingency_shift;
    case ComponentKind::kRankShift:
      return rank_shift;
    case ComponentKind::kDistributionShift:
      return distribution_shift;
  }
  return 1.0;
}

}  // namespace ziggy
