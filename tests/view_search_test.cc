// Unit tests for views/view_search.h: constraint enforcement (Eq. 3-4),
// ranking (Eq. 1), and planted-structure recovery.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "common/random.h"
#include "data/synthetic.h"
#include "views/view_search.h"
#include "zig/component_builder.h"

namespace ziggy {
namespace {

// Table with two planted themes (cols 1-2 shifted & correlated, cols 3-4
// correlated but NOT shifted) plus noise columns 5-6 and driver col 0.
struct SearchFixture {
  Table table;
  Selection selection;
  TableProfile profile;
  ComponentTable components;
};

SearchFixture MakeSearchFixture(uint64_t seed = 21) {
  Rng rng(seed);
  const size_t n = 800;
  std::vector<double> driver(n);
  std::vector<double> a0(n);
  std::vector<double> a1(n);
  std::vector<double> b0(n);
  std::vector<double> b1(n);
  std::vector<double> n0(n);
  std::vector<double> n1(n);
  Selection sel(n);
  for (size_t i = 0; i < n; ++i) {
    const bool inside = i % 10 == 0;
    if (inside) sel.Set(i);
    driver[i] = inside ? 2.0 + rng.Normal() : rng.Normal();
    const double fa = rng.Normal();
    const double shift = inside ? 2.5 : 0.0;
    a0[i] = shift + 0.85 * fa + 0.52 * rng.Normal();
    a1[i] = shift + 0.85 * fa + 0.52 * rng.Normal();
    const double fb = rng.Normal();
    b0[i] = 0.85 * fb + 0.52 * rng.Normal();
    b1[i] = 0.85 * fb + 0.52 * rng.Normal();
    n0[i] = rng.Normal();
    n1[i] = rng.Normal();
  }
  Table t = Table::FromColumns(
                {Column::FromNumeric("driver", driver), Column::FromNumeric("a0", a0),
                 Column::FromNumeric("a1", a1), Column::FromNumeric("b0", b0),
                 Column::FromNumeric("b1", b1), Column::FromNumeric("n0", n0),
                 Column::FromNumeric("n1", n1)})
                .ValueOrDie();
  TableProfile p = TableProfile::Compute(t).ValueOrDie();
  ComponentTable ct = BuildComponents(t, p, sel).ValueOrDie();
  return {std::move(t), std::move(sel), std::move(p), std::move(ct)};
}

TEST(ViewTightnessTest, SingletonIsOne) {
  SearchFixture fx = MakeSearchFixture();
  EXPECT_DOUBLE_EQ(ViewTightness(fx.profile, {1}), 1.0);
}

TEST(ViewTightnessTest, MinPairwiseDependency) {
  SearchFixture fx = MakeSearchFixture();
  const double t_pair = ViewTightness(fx.profile, {1, 2});
  EXPECT_GT(t_pair, 0.4);  // a0, a1 correlated
  const double t_mixed = ViewTightness(fx.profile, {1, 5});
  EXPECT_LT(t_mixed, 0.2);  // a0 vs noise
  EXPECT_LE(ViewTightness(fx.profile, {1, 2, 5}), t_mixed + 1e-12);
}

TEST(ViewSearchTest, RecoversShiftedThemeAsTopView) {
  SearchFixture fx = MakeSearchFixture();
  ViewSearchOptions opts;
  opts.min_tightness = 0.3;
  ViewSearchResult r = SearchViews(fx.profile, fx.components, opts).ValueOrDie();
  ASSERT_FALSE(r.views.empty());
  // The top view must contain the shifted theme columns {1, 2} (the driver
  // column 0 may legitimately join if correlated enough; here it isn't).
  const auto& top = r.views.front().columns;
  EXPECT_TRUE(std::find(top.begin(), top.end(), 1u) != top.end() ||
              std::find(top.begin(), top.end(), 0u) != top.end());
  // Find the view containing column 1: it must also contain column 2.
  for (const auto& v : r.views) {
    const bool has1 = std::find(v.columns.begin(), v.columns.end(), 1u) != v.columns.end();
    const bool has2 = std::find(v.columns.begin(), v.columns.end(), 2u) != v.columns.end();
    if (has1 || has2) {
      EXPECT_EQ(has1, has2) << "theme a split across views";
    }
  }
}

TEST(ViewSearchTest, UnshiftedThemeRanksBelowShifted) {
  SearchFixture fx = MakeSearchFixture();
  ViewSearchOptions opts;
  opts.min_tightness = 0.3;
  opts.max_views = 0;  // all
  ViewSearchResult r = SearchViews(fx.profile, fx.components, opts).ValueOrDie();
  int rank_shifted = -1;
  int rank_unshifted = -1;
  for (size_t i = 0; i < r.views.size(); ++i) {
    const auto& cols = r.views[i].columns;
    if (std::find(cols.begin(), cols.end(), 1u) != cols.end()) {
      if (rank_shifted < 0) rank_shifted = static_cast<int>(i);
    }
    if (std::find(cols.begin(), cols.end(), 3u) != cols.end()) {
      if (rank_unshifted < 0) rank_unshifted = static_cast<int>(i);
    }
  }
  ASSERT_GE(rank_shifted, 0);
  ASSERT_GE(rank_unshifted, 0);
  EXPECT_LT(rank_shifted, rank_unshifted);
}

TEST(ViewSearchTest, DisjointViewsDoNotShareColumns) {
  SearchFixture fx = MakeSearchFixture();
  ViewSearchOptions opts;
  opts.min_tightness = 0.2;
  ViewSearchResult r = SearchViews(fx.profile, fx.components, opts).ValueOrDie();
  std::set<size_t> seen;
  for (const auto& v : r.views) {
    for (size_t c : v.columns) {
      EXPECT_TRUE(seen.insert(c).second) << "column " << c << " appears twice (Eq. 4)";
    }
  }
}

TEST(ViewSearchTest, TightnessConstraintHolds) {
  SearchFixture fx = MakeSearchFixture();
  for (double min_tight : {0.2, 0.4, 0.6, 0.8}) {
    ViewSearchOptions opts;
    opts.min_tightness = min_tight;
    opts.max_views = 0;
    ViewSearchResult r = SearchViews(fx.profile, fx.components, opts).ValueOrDie();
    for (const auto& v : r.views) {
      if (v.columns.size() > 1) {
        EXPECT_GE(v.tightness, min_tight - 1e-9)
            << "MIN_tight=" << min_tight << " violated";
      }
    }
  }
}

TEST(ViewSearchTest, MaxViewSizeRespected) {
  SearchFixture fx = MakeSearchFixture();
  ViewSearchOptions opts;
  opts.min_tightness = 0.0;  // everything merges
  opts.max_view_size = 2;
  ViewSearchResult r = SearchViews(fx.profile, fx.components, opts).ValueOrDie();
  for (const auto& v : r.views) EXPECT_LE(v.columns.size(), 2u);
}

TEST(ViewSearchTest, MaxViewsTruncatesRanking) {
  SearchFixture fx = MakeSearchFixture();
  ViewSearchOptions opts;
  opts.min_tightness = 0.2;
  opts.max_views = 2;
  ViewSearchResult r = SearchViews(fx.profile, fx.components, opts).ValueOrDie();
  EXPECT_LE(r.views.size(), 2u);
  ViewSearchOptions all;
  all.min_tightness = 0.2;
  all.max_views = 0;
  ViewSearchResult r_all = SearchViews(fx.profile, fx.components, all).ValueOrDie();
  EXPECT_GE(r_all.views.size(), r.views.size());
  // Truncation keeps the best-scoring prefix.
  for (size_t i = 0; i < r.views.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.views[i].score.total, r_all.views[i].score.total);
  }
}

TEST(ViewSearchTest, ScoresAreSortedDescending) {
  SearchFixture fx = MakeSearchFixture();
  ViewSearchOptions opts;
  opts.max_views = 0;
  ViewSearchResult r = SearchViews(fx.profile, fx.components, opts).ValueOrDie();
  for (size_t i = 1; i < r.views.size(); ++i) {
    EXPECT_GE(r.views[i - 1].score.total, r.views[i].score.total);
  }
}

TEST(ViewSearchTest, SingletonsCanBeDisabled) {
  SearchFixture fx = MakeSearchFixture();
  ViewSearchOptions opts;
  opts.min_tightness = 0.9;  // nothing clusters: all singletons
  opts.allow_singletons = false;
  ViewSearchResult r = SearchViews(fx.profile, fx.components, opts).ValueOrDie();
  EXPECT_TRUE(r.views.empty());
  opts.allow_singletons = true;
  ViewSearchResult r2 = SearchViews(fx.profile, fx.components, opts).ValueOrDie();
  EXPECT_FALSE(r2.views.empty());
}

TEST(ViewSearchTest, NonDisjointModeProducesOverlaps) {
  SearchFixture fx = MakeSearchFixture();
  ViewSearchOptions opts;
  opts.min_tightness = 0.3;
  opts.enforce_disjoint = false;
  opts.max_views = 0;
  ViewSearchResult r = SearchViews(fx.profile, fx.components, opts).ValueOrDie();
  // Subsets of the shifted theme now compete: strictly more candidates
  // than the disjoint run.
  ViewSearchOptions disjoint = opts;
  disjoint.enforce_disjoint = true;
  ViewSearchResult rd = SearchViews(fx.profile, fx.components, disjoint).ValueOrDie();
  EXPECT_GT(r.num_candidates, rd.num_candidates);
  // And overlap exists somewhere in the ranking.
  std::set<size_t> seen;
  bool overlap = false;
  for (const auto& v : r.views) {
    for (size_t c : v.columns) {
      if (!seen.insert(c).second) overlap = true;
    }
  }
  EXPECT_TRUE(overlap);
}

TEST(ViewSearchTest, InvalidOptionsRejected) {
  SearchFixture fx = MakeSearchFixture();
  ViewSearchOptions bad_tight;
  bad_tight.min_tightness = 1.5;
  EXPECT_TRUE(SearchViews(fx.profile, fx.components, bad_tight).status()
                  .IsInvalidArgument());
  ViewSearchOptions bad_size;
  bad_size.max_view_size = 0;
  EXPECT_TRUE(SearchViews(fx.profile, fx.components, bad_size).status()
                  .IsInvalidArgument());
}

// ---- ViewPlan against the per-view reference --------------------------------

bool SameBreakdown(const ScoreBreakdown& a, const ScoreBreakdown& b) {
  return std::memcmp(&a.total, &b.total, sizeof(a.total)) == 0 &&
         std::memcmp(a.per_kind, b.per_kind, sizeof(a.per_kind)) == 0 &&
         std::memcmp(a.count_per_kind, b.count_per_kind,
                     sizeof(a.count_per_kind)) == 0;
}

// Scores every plan candidate with ScoreView, ranks as view search always
// has (stable sort on descending total, then truncation), and checks the
// one-pass scorer and both search entry points against that, bit for bit.
void ExpectPlanMatchesScoreView(const TableProfile& profile,
                                const Dendrogram& dendro,
                                const ComponentTable& components,
                                const ViewSearchOptions& options) {
  SCOPED_TRACE("min_tightness=" + std::to_string(options.min_tightness) +
               " disjoint=" + std::to_string(options.enforce_disjoint) +
               " singletons=" + std::to_string(options.allow_singletons));
  const ViewPlan plan = ViewPlan::Build(profile, dendro, options).ValueOrDie();
  ASSERT_TRUE(plan.Matches(options));
  ASSERT_FALSE(plan.candidates().empty());
  const std::vector<ScoreBreakdown> scores =
      plan.Score(components, options.weights);
  ASSERT_EQ(scores.size(), plan.candidates().size());

  std::vector<View> reference = plan.candidates();
  for (size_t i = 0; i < reference.size(); ++i) {
    reference[i].score =
        ScoreView(components, reference[i].columns, options.weights);
    EXPECT_TRUE(SameBreakdown(scores[i], reference[i].score))
        << "candidate " << i;
  }
  std::stable_sort(reference.begin(), reference.end(),
                   [](const View& a, const View& b) {
                     return a.score.total > b.score.total;
                   });
  if (options.max_views > 0 && reference.size() > options.max_views) {
    reference.resize(options.max_views);
  }

  const ViewSearchResult searched = plan.Search(components, options);
  const ViewSearchResult wrapped =
      SearchViews(profile, components, options, &dendro).ValueOrDie();
  for (const ViewSearchResult* r : {&searched, &wrapped}) {
    EXPECT_EQ(r->num_candidates, plan.num_generated());
    ASSERT_EQ(r->views.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(r->views[i].columns, reference[i].columns) << "rank " << i;
      EXPECT_TRUE(SameBreakdown(r->views[i].score, reference[i].score))
          << "rank " << i;
      EXPECT_EQ(r->views[i].tightness, reference[i].tightness);
    }
  }

  if (options.enforce_disjoint) {
    // Disjoint candidates are the size-bounded cut itself, column-sorted,
    // minus the singletons when those are off.
    std::vector<std::vector<size_t>> cut = dendro.CutAtHeightWithMaxSize(
        1.0 - options.min_tightness, options.max_view_size);
    std::vector<std::vector<size_t>> expected;
    for (auto& cols : cut) {
      if (cols.size() == 1 && !options.allow_singletons) continue;
      std::sort(cols.begin(), cols.end());
      expected.push_back(std::move(cols));
    }
    ASSERT_EQ(plan.candidates().size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(plan.candidates()[i].columns, expected[i]);
    }
  }
}

void ExpectPlanMatchesOnDataset(Result<SyntheticDataset> generated) {
  const SyntheticDataset ds = std::move(generated).ValueOrDie();
  const TableProfile profile = TableProfile::Compute(ds.table).ValueOrDie();
  const Dendrogram dendro = BuildColumnDendrogram(profile).ValueOrDie();
  const ComponentTable components =
      BuildComponents(ds.table, profile, ds.planted).ValueOrDie();

  ZigWeights skewed;
  skewed.mean_shift = 2.5;
  skewed.correlation_shift = 0.25;
  skewed.rank_shift = 0.0;
  skewed.distribution_shift = 1.75;

  for (const bool disjoint : {true, false}) {
    for (const double tightness : {0.2, 0.4, 0.7}) {
      ViewSearchOptions options;
      options.enforce_disjoint = disjoint;
      options.min_tightness = tightness;
      ExpectPlanMatchesScoreView(profile, dendro, components, options);
    }
    ViewSearchOptions no_singletons;
    no_singletons.enforce_disjoint = disjoint;
    no_singletons.min_tightness = 0.2;
    no_singletons.allow_singletons = false;
    ExpectPlanMatchesScoreView(profile, dendro, components, no_singletons);
    ViewSearchOptions weighted;
    weighted.enforce_disjoint = disjoint;
    weighted.weights = skewed;
    weighted.max_views = 0;
    ExpectPlanMatchesScoreView(profile, dendro, components, weighted);
  }
}

TEST(ViewPlanTest, MatchesScoreViewOnCrime) {
  ExpectPlanMatchesOnDataset(MakeCrimeDataset());
}

TEST(ViewPlanTest, MatchesScoreViewOnOecd) {
  ExpectPlanMatchesOnDataset(MakeOecdDataset());
}

TEST(ViewPlanTest, MatchesScoreViewOnBoxOffice) {
  ExpectPlanMatchesOnDataset(MakeBoxOfficeDataset());
}

TEST(ViewPlanTest, MatchesOnlyItsStructuralOptions) {
  SearchFixture fx = MakeSearchFixture();
  const Dendrogram dendro = BuildColumnDendrogram(fx.profile).ValueOrDie();
  ViewSearchOptions opts;
  const ViewPlan plan = ViewPlan::Build(fx.profile, dendro, opts).ValueOrDie();
  ViewSearchOptions ranking_only = opts;
  ranking_only.max_views = 3;
  ranking_only.weights.mean_shift = 4.0;
  EXPECT_TRUE(plan.Matches(ranking_only));
  ViewSearchOptions changed = opts;
  changed.min_tightness = 0.6;
  EXPECT_FALSE(plan.Matches(changed));
  changed = opts;
  changed.max_view_size = 2;
  EXPECT_FALSE(plan.Matches(changed));
  changed = opts;
  changed.allow_singletons = false;
  EXPECT_FALSE(plan.Matches(changed));
  changed = opts;
  changed.enforce_disjoint = false;
  EXPECT_FALSE(plan.Matches(changed));
}

TEST(ViewPlanTest, RejectsMismatchedDendrogram) {
  SearchFixture fx = MakeSearchFixture();
  const Dendrogram wrong =
      CompleteLinkage({0.0, 1.0, 1.0, 0.0}, 2).ValueOrDie();
  EXPECT_TRUE(
      ViewPlan::Build(fx.profile, wrong, {}).status().IsInvalidArgument());
}

TEST(ViewTest, ColumnNamesRendering) {
  SearchFixture fx = MakeSearchFixture();
  View v;
  v.columns = {1, 2};
  EXPECT_EQ(v.ColumnNames(fx.table.schema()), "{a0, a1}");
}

}  // namespace
}  // namespace ziggy
