// View search: candidate generation, constraint enforcement, scoring and
// ranking — the middle stage of Ziggy's pipeline (paper §3, Figure 4),
// solving the optimization system of Eq. 5.

#ifndef ZIGGY_VIEWS_VIEW_SEARCH_H_
#define ZIGGY_VIEWS_VIEW_SEARCH_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "views/clustering.h"
#include "views/view.h"
#include "zig/component_table.h"
#include "zig/profile.h"

namespace ziggy {

/// \brief Knobs of the view search (the user parameters of Eq. 5).
struct ViewSearchOptions {
  /// MIN_tight of Eq. 3: minimum pairwise dependency within a view.
  double min_tightness = 0.4;
  /// Maximum number of columns per view (the D of §2.1: views have
  /// "purposely low dimensionality" so users can plot them).
  size_t max_view_size = 4;
  /// Maximum number of views returned (0 = all).
  size_t max_views = 10;
  /// Keep singleton views (a single divergent column is still informative).
  bool allow_singletons = true;
  /// Enforce Eq. 4 disjointness. Disabling floods the output with
  /// overlapping variants; exists for the A3 ablation bench.
  bool enforce_disjoint = true;
  /// Weights of the Zig-Dissimilarity aggregation.
  ZigWeights weights;
};

/// \brief Result of the search: the ranked views.
struct ViewSearchResult {
  std::vector<View> views;      ///< sorted by descending score
  size_t num_candidates = 0;    ///< candidates generated before ranking
};

/// \brief The query-independent half of view search: the candidate views
/// cut from the column dendrogram (Eq. 3), filtered and column-sorted once,
/// plus a column -> candidate index that lets one pass over a component
/// table score every candidate.
///
/// A plan depends only on the profile, the dendrogram and the structural
/// options (min_tightness, max_view_size, allow_singletons,
/// enforce_disjoint), never on the query, so an engine builds it once and
/// scores each query's component table against it.
class ViewPlan {
 public:
  /// Cuts `dendrogram` (built from `profile`) into candidates.
  static Result<ViewPlan> Build(const TableProfile& profile,
                                const Dendrogram& dendrogram,
                                const ViewSearchOptions& options);

  /// True when `options` has the structural fields this plan was built
  /// with; the others (max_views, weights) only affect Search.
  bool Matches(const ViewSearchOptions& options) const;

  /// Candidates that passed the singleton and tightness filters, in
  /// generation order: columns ascending, tightness set, score empty.
  const std::vector<View>& candidates() const { return candidates_; }

  /// Candidates generated by the cut, before filtering.
  size_t num_generated() const { return num_generated_; }

  /// Scores every candidate in one pass over the component table. Element
  /// i equals ScoreView(components, candidates()[i].columns, weights) bit
  /// for bit: each candidate's sums accumulate in table order.
  std::vector<ScoreBreakdown> Score(const ComponentTable& components,
                                    const ZigWeights& weights) const;

  /// Scores, ranks by descending total (stable: ties keep generation
  /// order) and keeps the best `options.max_views`.
  ViewSearchResult Search(const ComponentTable& components,
                          const ViewSearchOptions& options) const;

 private:
  ViewPlan() = default;

  double min_tightness_ = 0.0;
  size_t max_view_size_ = 0;
  bool allow_singletons_ = true;
  bool enforce_disjoint_ = true;
  size_t num_generated_ = 0;
  std::vector<View> candidates_;
  // Column -> candidate ids, in CSR form: column c's candidates are
  // candidate_ids_[column_offsets_[c] .. column_offsets_[c + 1]), ascending.
  // Disjoint candidates give each column at most one entry.
  std::vector<uint32_t> column_offsets_;
  std::vector<uint32_t> candidate_ids_;
};

/// \brief Runs the complete view search over a prepared component table:
/// builds a ViewPlan, then scores it.
///
/// `precomputed_dendrogram` may supply the column dendrogram (it depends
/// only on the table profile, not on the query, so engines compute it once
/// per table and reuse it across queries). Pass nullptr to have it built
/// here.
Result<ViewSearchResult> SearchViews(const TableProfile& profile,
                                     const ComponentTable& components,
                                     const ViewSearchOptions& options = {},
                                     const Dendrogram* precomputed_dendrogram = nullptr);

/// \brief Builds the column dendrogram from the profile's dependency
/// matrix (distance = 1 − S, complete linkage).
Result<Dendrogram> BuildColumnDendrogram(const TableProfile& profile);

/// \brief Computes the tightness (Eq. 2) of a column set: min pairwise
/// dependency; 1.0 for singletons.
double ViewTightness(const TableProfile& profile, const std::vector<size_t>& columns);

}  // namespace ziggy

#endif  // ZIGGY_VIEWS_VIEW_SEARCH_H_
