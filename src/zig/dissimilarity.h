// Zig-Dissimilarity: the normalized, weighted aggregation of Zig-Components
// that scores a candidate view (paper §2.2 and Eq. 1).

#ifndef ZIGGY_ZIG_DISSIMILARITY_H_
#define ZIGGY_ZIG_DISSIMILARITY_H_

#include <cstdint>
#include <vector>

#include "zig/component_table.h"

namespace ziggy {

/// \brief Per-kind breakdown of a view's score, used by explanations.
struct ScoreBreakdown {
  double total = 0.0;
  /// Average normalized magnitude per kind over the view's columns/pairs.
  double per_kind[kNumComponentKinds] = {0, 0, 0, 0, 0, 0};
  /// Number of components of each kind inside the view.
  size_t count_per_kind[kNumComponentKinds] = {0, 0, 0, 0, 0, 0};
};

/// \brief Membership test for a view's columns, built once per view: view
/// search and post-processing test every component of an O(columns^2)
/// table against it, so a per-endpoint std::find would be quadratic in
/// wide tables.
class ViewMembership {
 public:
  explicit ViewMembership(const std::vector<size_t>& view_columns);

  bool Contains(size_t col) const {
    return col < member_.size() && member_[col] != 0;
  }

  /// True when the component's column (both columns, for pair kinds) lies
  /// inside the view.
  bool Covers(const ZigComponent& c) const {
    return IsPairKind(c.kind) ? (Contains(c.col_a) && Contains(c.col_b))
                              : Contains(c.col_a);
  }

 private:
  std::vector<uint8_t> member_;
};

/// \brief Completes a breakdown whose `count_per_kind` is filled, from the
/// per-kind sums of normalized magnitudes: per-kind averages, then their
/// weighted mean. The one aggregation behind ScoreView and ViewPlan::Score.
void FinishScore(const double sums[kNumComponentKinds],
                 const ZigWeights& weights, ScoreBreakdown* out);

/// \brief Scores a view (a set of column indices) against the component
/// table: for each kind, the normalized magnitudes of the components whose
/// column(s) lie inside the view are averaged, then the per-kind averages
/// are combined by the user's weights.
///
/// Averaging (rather than summing) keeps the score size-invariant, which is
/// the guard against Eq. 1's bias toward large heterogeneous subspaces.
ScoreBreakdown ScoreView(const ComponentTable& components,
                         const std::vector<size_t>& view_columns,
                         const ZigWeights& weights);

/// \brief Convenience: total score only.
double ZigDissimilarity(const ComponentTable& components,
                        const std::vector<size_t>& view_columns,
                        const ZigWeights& weights);

}  // namespace ziggy

#endif  // ZIGGY_ZIG_DISSIMILARITY_H_
