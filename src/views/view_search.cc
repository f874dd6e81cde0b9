#include "views/view_search.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"

namespace ziggy {

double ViewTightness(const TableProfile& profile, const std::vector<size_t>& columns) {
  if (columns.size() <= 1) return 1.0;
  double min_dep = 1.0;
  for (size_t i = 0; i < columns.size(); ++i) {
    for (size_t j = i + 1; j < columns.size(); ++j) {
      min_dep = std::min(min_dep, profile.Dependency(columns[i], columns[j]));
    }
  }
  return min_dep;
}

namespace {

// Enumerates all non-empty subsets of `cluster` up to `max_size` columns,
// capped at `cap` subsets. Used by the non-disjoint ablation mode, which
// reproduces the redundancy pathology the paper's Eq. 4 guards against.
void EnumerateSubsets(const std::vector<size_t>& cluster, size_t max_size, size_t cap,
                      std::vector<std::vector<size_t>>* out) {
  const size_t n = cluster.size();
  if (n == 0) return;
  if (n <= 20) {
    const uint64_t limit = uint64_t{1} << n;
    for (uint64_t mask = 1; mask < limit && out->size() < cap; ++mask) {
      if (static_cast<size_t>(__builtin_popcountll(mask)) > max_size) continue;
      std::vector<size_t> subset;
      for (size_t b = 0; b < n; ++b) {
        if (mask & (uint64_t{1} << b)) subset.push_back(cluster[b]);
      }
      out->push_back(std::move(subset));
    }
  } else {
    // Wide cluster: fall back to singletons and adjacent pairs.
    for (size_t i = 0; i < n && out->size() < cap; ++i) {
      out->push_back({cluster[i]});
      if (i + 1 < n) out->push_back({cluster[i], cluster[i + 1]});
    }
  }
}

Status CheckSearchOptions(const ViewSearchOptions& options) {
  if (options.min_tightness < 0.0 || options.min_tightness > 1.0) {
    return Status::InvalidArgument("min_tightness must be in [0, 1]");
  }
  if (options.max_view_size == 0) {
    return Status::InvalidArgument("max_view_size must be >= 1");
  }
  return Status::OK();
}

}  // namespace

Result<Dendrogram> BuildColumnDendrogram(const TableProfile& profile) {
  const size_t m = profile.num_columns();
  std::vector<double> dist(m * m, 0.0);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < m; ++j) {
      dist[i * m + j] = (i == j) ? 0.0 : 1.0 - profile.Dependency(i, j);
    }
  }
  return CompleteLinkage(dist, m);
}

Result<ViewPlan> ViewPlan::Build(const TableProfile& profile,
                                 const Dendrogram& dendrogram,
                                 const ViewSearchOptions& options) {
  ZIGGY_RETURN_NOT_OK(CheckSearchOptions(options));
  if (dendrogram.num_leaves() != profile.num_columns()) {
    return Status::InvalidArgument(
        "precomputed dendrogram does not match profile");
  }

  // ---- Candidate generation (Eq. 3 via the complete-linkage cut) ----------
  const double cut_height = 1.0 - options.min_tightness;
  std::vector<std::vector<size_t>> clusters =
      dendrogram.CutAtHeightWithMaxSize(cut_height, options.max_view_size);

  std::vector<std::vector<size_t>> generated;
  if (options.enforce_disjoint) {
    generated = std::move(clusters);
  } else {
    // Ablation mode: every tight subset competes (subsets of a cluster with
    // min pairwise dependency >= MIN_tight inherit the bound).
    constexpr size_t kSubsetCap = 20000;
    for (const auto& c : clusters) {
      EnumerateSubsets(c, options.max_view_size, kSubsetCap, &generated);
      if (generated.size() >= kSubsetCap) break;
    }
  }

  ViewPlan plan;
  plan.min_tightness_ = options.min_tightness;
  plan.max_view_size_ = options.max_view_size;
  plan.allow_singletons_ = options.allow_singletons;
  plan.enforce_disjoint_ = options.enforce_disjoint;
  plan.num_generated_ = generated.size();
  for (auto& cols : generated) {
    if (cols.empty()) continue;
    if (cols.size() == 1 && !options.allow_singletons) continue;
    View v;
    std::sort(cols.begin(), cols.end());
    v.columns = std::move(cols);
    v.tightness = ViewTightness(profile, v.columns);
    if (v.columns.size() > 1 && v.tightness < options.min_tightness) {
      // Defensive: the cut guarantees this, but singleton splits of
      // oversized clusters re-checked anyway.
      continue;
    }
    plan.candidates_.push_back(std::move(v));
  }

  // ---- Column -> candidate index (CSR) ------------------------------------
  const size_t m = profile.num_columns();
  plan.column_offsets_.assign(m + 1, 0);
  for (const View& v : plan.candidates_) {
    for (size_t col : v.columns) ++plan.column_offsets_[col + 1];
  }
  for (size_t c = 0; c < m; ++c) {
    plan.column_offsets_[c + 1] += plan.column_offsets_[c];
  }
  plan.candidate_ids_.resize(plan.column_offsets_[m]);
  std::vector<uint32_t> fill(plan.column_offsets_.begin(),
                             plan.column_offsets_.end() - 1);
  for (size_t id = 0; id < plan.candidates_.size(); ++id) {
    for (size_t col : plan.candidates_[id].columns) {
      plan.candidate_ids_[fill[col]++] = static_cast<uint32_t>(id);
    }
  }
  return plan;
}

bool ViewPlan::Matches(const ViewSearchOptions& options) const {
  return options.min_tightness == min_tightness_ &&
         options.max_view_size == max_view_size_ &&
         options.allow_singletons == allow_singletons_ &&
         options.enforce_disjoint == enforce_disjoint_;
}

std::vector<ScoreBreakdown> ViewPlan::Score(const ComponentTable& components,
                                            const ZigWeights& weights) const {
  constexpr size_t K = kNumComponentKinds;
  std::vector<ScoreBreakdown> out(candidates_.size());
  std::vector<double> sums(candidates_.size() * K, 0.0);
  const size_t m = column_offsets_.size() - 1;
  const uint32_t* ids = candidate_ids_.data();
  for (const ZigComponent& c : components.components()) {
    if (c.col_a >= m) continue;
    const uint32_t* a = ids + column_offsets_[c.col_a];
    const uint32_t* a_end = ids + column_offsets_[c.col_a + 1];
    if (a == a_end) continue;
    const size_t k = static_cast<size_t>(c.kind);
    const double mag = components.NormalizedMagnitude(c);
    if (!IsPairKind(c.kind)) {
      for (; a != a_end; ++a) {
        sums[*a * K + k] += mag;
        ++out[*a].count_per_kind[k];
      }
      continue;
    }
    // A pair counts for the candidates holding both of its columns: the
    // intersection of two ascending id lists.
    if (c.col_b >= m) continue;
    const uint32_t* b = ids + column_offsets_[c.col_b];
    const uint32_t* b_end = ids + column_offsets_[c.col_b + 1];
    while (a != a_end && b != b_end) {
      if (*a < *b) {
        ++a;
      } else if (*b < *a) {
        ++b;
      } else {
        sums[*a * K + k] += mag;
        ++out[*a].count_per_kind[k];
        ++a;
        ++b;
      }
    }
  }
  for (size_t i = 0; i < out.size(); ++i) {
    FinishScore(&sums[i * K], weights, &out[i]);
  }
  return out;
}

ViewSearchResult ViewPlan::Search(const ComponentTable& components,
                                  const ViewSearchOptions& options) const {
  // ---- Scoring and ranking (Eq. 1) -----------------------------------------
  const std::vector<ScoreBreakdown> scores =
      Score(components, options.weights);
  std::vector<uint32_t> order(candidates_.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<uint32_t>(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&scores](uint32_t a, uint32_t b) {
                     return scores[a].total > scores[b].total;
                   });
  if (options.max_views > 0 && order.size() > options.max_views) {
    order.resize(options.max_views);
  }
  ViewSearchResult result;
  result.num_candidates = num_generated_;
  result.views.reserve(order.size());
  for (uint32_t id : order) {
    result.views.push_back(candidates_[id]);
    result.views.back().score = scores[id];
  }
  return result;
}

Result<ViewSearchResult> SearchViews(const TableProfile& profile,
                                     const ComponentTable& components,
                                     const ViewSearchOptions& options,
                                     const Dendrogram* precomputed_dendrogram) {
  ZIGGY_RETURN_NOT_OK(CheckSearchOptions(options));
  std::optional<Dendrogram> built;
  if (precomputed_dendrogram == nullptr) {
    ZIGGY_ASSIGN_OR_RETURN(built, BuildColumnDendrogram(profile));
  }
  const Dendrogram& dendrogram =
      built.has_value() ? *built : *precomputed_dendrogram;
  ZIGGY_ASSIGN_OR_RETURN(ViewPlan plan,
                         ViewPlan::Build(profile, dendrogram, options));
  return plan.Search(components, options);
}

}  // namespace ziggy
