#include "zig/dissimilarity.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace ziggy {

ViewMembership::ViewMembership(const std::vector<size_t>& view_columns) {
  size_t max_col = 0;
  for (size_t col : view_columns) max_col = std::max(max_col, col);
  member_.assign(view_columns.empty() ? 0 : max_col + 1, 0);
  for (size_t col : view_columns) member_[col] = 1;
}

void FinishScore(const double sums[kNumComponentKinds],
                 const ZigWeights& weights, ScoreBreakdown* out) {
  double weight_total = 0.0;
  for (size_t k = 0; k < kNumComponentKinds; ++k) {
    if (out->count_per_kind[k] == 0) continue;
    out->per_kind[k] = sums[k] / static_cast<double>(out->count_per_kind[k]);
    const double w = weights.ForKind(static_cast<ComponentKind>(k));
    out->total += w * out->per_kind[k];
    weight_total += w;
  }
  if (weight_total > 0.0) out->total /= weight_total;
}

ScoreBreakdown ScoreView(const ComponentTable& components,
                         const std::vector<size_t>& view_columns,
                         const ZigWeights& weights) {
  ScoreBreakdown out;
  if (view_columns.empty()) return out;

  double sums[kNumComponentKinds] = {0, 0, 0, 0, 0, 0};
  const ViewMembership member(view_columns);
  for (const auto& c : components.components()) {
    if (!member.Covers(c)) continue;
    const size_t k = static_cast<size_t>(c.kind);
    sums[k] += components.NormalizedMagnitude(c);
    ++out.count_per_kind[k];
  }
  FinishScore(sums, weights, &out);
  return out;
}

double ZigDissimilarity(const ComponentTable& components,
                        const std::vector<size_t>& view_columns,
                        const ZigWeights& weights) {
  return ScoreView(components, view_columns, weights).total;
}

}  // namespace ziggy
