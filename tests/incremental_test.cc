// Tests for the extended preparation machinery: rank-shift and
// distribution-shift components, SelectionSketches row add/remove, and the
// engine's incremental (delta) preparation: ProvideSketches patching a
// cached overlapping selection.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "data/synthetic.h"
#include "engine/sketch_cache.h"
#include "engine/ziggy_engine.h"
#include "two_scan_reference.h"
#include "zig/component_builder.h"

namespace ziggy {
namespace {

struct Fixture {
  Table table;
  Selection selection;
  TableProfile profile;
};

// Columns: "shifted" (planted +2 inside), "heavy" (inside has the same mean
// and variance-ish but is drawn from a shifted-median asymmetric
// distribution), "flat".
Fixture MakeFixture(uint64_t seed = 77) {
  Rng rng(seed);
  const size_t n = 1200;
  std::vector<double> shifted(n);
  std::vector<double> heavy(n);
  std::vector<double> flat(n);
  Selection sel(n);
  for (size_t i = 0; i < n; ++i) {
    const bool inside = i % 4 == 0;
    if (inside) sel.Set(i);
    shifted[i] = (inside ? 2.0 : 0.0) + rng.Normal();
    if (inside) {
      // Median well above 0 but mean pulled back by a far-left tail:
      // rank/distribution components see this, the mean barely moves.
      heavy[i] = rng.Bernoulli(0.8) ? rng.Uniform(0.5, 1.5) : rng.Uniform(-6.0, -2.0);
    } else {
      heavy[i] = rng.Normal(0.0, 1.0);
    }
    flat[i] = rng.Normal();
  }
  Table t = Table::FromColumns({Column::FromNumeric("shifted", shifted),
                                Column::FromNumeric("heavy", heavy),
                                Column::FromNumeric("flat", flat)})
                .ValueOrDie();
  TableProfile p = TableProfile::Compute(t).ValueOrDie();
  return {std::move(t), std::move(sel), std::move(p)};
}

// ----------------------------------------------------------- new profile --

TEST(ProfileExtensionsTest, RanksFollowValueOrder) {
  Fixture fx = MakeFixture();
  const auto& rank2 = fx.profile.Rank2(0);
  const auto& data = fx.table.column(0).numeric_data();
  ASSERT_EQ(rank2.size(), fx.table.num_rows());
  for (size_t i = 0; i < data.size(); ++i) {
    for (size_t j = 0; j < data.size(); j += 17) {
      EXPECT_EQ(data[i] < data[j], rank2[i] < rank2[j]);
      EXPECT_EQ(data[i] == data[j], rank2[i] == rank2[j]);
    }
  }
}

TEST(ProfileExtensionsTest, RanksAreDoubledMidranksWithNullsZero) {
  const double kNull = NullNumeric();
  std::vector<Column> columns;
  columns.push_back(
      Column::FromNumeric("x", {3.0, kNull, 1.0, kNull, 3.0, 2.0, 3.0}));
  Table t = Table::FromColumns(std::move(columns)).ValueOrDie();
  TableProfile p = TableProfile::Compute(t).ValueOrDie();
  // Non-NULL values 1, 2, 3, 3, 3 hold ranks 1, 2 and midrank 4 for the ties.
  EXPECT_EQ(p.Rank2(0), (std::vector<uint32_t>{8, 0, 2, 0, 8, 4, 8}));
}

TEST(ProfileExtensionsTest, GlobalHistogramCoversAllRows) {
  Fixture fx = MakeFixture();
  const auto& h = fx.profile.HistogramCountsOf(0);
  ASSERT_FALSE(h.empty());
  int64_t total = 0;
  for (int64_t v : h) total += v;
  EXPECT_EQ(total, static_cast<int64_t>(fx.table.num_rows()));
}

TEST(ProfileExtensionsTest, HistogramBinOfClamps) {
  EXPECT_EQ(HistogramBinOf(-100.0, 0.0, 10.0, 5), 0u);
  EXPECT_EQ(HistogramBinOf(100.0, 0.0, 10.0, 5), 4u);
  EXPECT_EQ(HistogramBinOf(10.0, 0.0, 10.0, 5), 4u);  // upper edge inclusive
  EXPECT_EQ(HistogramBinOf(0.0, 0.0, 10.0, 5), 0u);
  EXPECT_EQ(HistogramBinOf(5.0, 5.0, 5.0, 4), 0u);  // degenerate range
}

// ------------------------------------------------------- new components ----

TEST(RankShiftTest, DetectsPlantedShift) {
  Fixture fx = MakeFixture();
  ComponentTable ct =
      BuildComponents(fx.table, fx.profile, fx.selection).ValueOrDie();
  const ZigComponent* rank = ct.Find(ComponentKind::kRankShift, 0);
  ASSERT_NE(rank, nullptr);
  EXPECT_GT(rank->effect.value, 0.7);  // strong dominance
  EXPECT_LT(rank->p_value(), 1e-10);
  EXPECT_GT(rank->inside_value, 0.85);  // P(inside > outside)
}

TEST(RankShiftTest, FlatColumnNearZero) {
  Fixture fx = MakeFixture();
  ComponentTable ct =
      BuildComponents(fx.table, fx.profile, fx.selection).ValueOrDie();
  const ZigComponent* rank = ct.Find(ComponentKind::kRankShift, 2);
  ASSERT_NE(rank, nullptr);
  EXPECT_LT(std::fabs(rank->effect.value), 0.15);
}

TEST(RankShiftTest, CatchesWhatMeanShiftUnderstates) {
  // The "heavy" column: median clearly shifted, mean pulled back by the
  // planted left tail. The rank component must be decisively significant.
  Fixture fx = MakeFixture();
  ComponentTable ct =
      BuildComponents(fx.table, fx.profile, fx.selection).ValueOrDie();
  const ZigComponent* rank = ct.Find(ComponentKind::kRankShift, 1);
  ASSERT_NE(rank, nullptr);
  EXPECT_GT(rank->effect.value, 0.25);
  EXPECT_LT(rank->p_value(), 1e-4);
}

TEST(RankShiftTest, TieHandlingIsSymmetric) {
  // All values identical: U must be exactly n1*n2/2, delta 0.
  const size_t n = 40;
  std::vector<double> same(n, 5.0);
  Table t = Table::FromColumns({Column::FromNumeric("x", same)}).ValueOrDie();
  TableProfile p = TableProfile::Compute(t).ValueOrDie();
  Selection sel(n);
  for (size_t i = 0; i < n / 2; ++i) sel.Set(i);
  ComponentTable ct = BuildComponents(t, p, sel).ValueOrDie();
  const ZigComponent* rank = ct.Find(ComponentKind::kRankShift, 0);
  ASSERT_NE(rank, nullptr);
  EXPECT_NEAR(rank->effect.value, 0.0, 1e-12);
  EXPECT_NEAR(rank->inside_value, 0.5, 1e-12);
}

TEST(DistributionShiftTest, DetectsPlantedShape) {
  Fixture fx = MakeFixture();
  ComponentTable ct =
      BuildComponents(fx.table, fx.profile, fx.selection).ValueOrDie();
  const ZigComponent* dist = ct.Find(ComponentKind::kDistributionShift, 1);
  ASSERT_NE(dist, nullptr);
  EXPECT_GT(dist->inside_value, 0.3);  // TV distance
  EXPECT_LT(dist->p_value(), 1e-10);
  EXPECT_FALSE(dist->detail().empty());  // names the concentrated range
}

TEST(DistributionShiftTest, FlatColumnInsignificant) {
  Fixture fx = MakeFixture();
  ComponentTable ct =
      BuildComponents(fx.table, fx.profile, fx.selection).ValueOrDie();
  const ZigComponent* dist = ct.Find(ComponentKind::kDistributionShift, 2);
  ASSERT_NE(dist, nullptr);
  EXPECT_GT(dist->p_value(), 0.001);
}

TEST(DistributionShiftTest, DisabledByOption) {
  // A profile without histograms yields no distribution-shift component.
  Fixture fx = MakeFixture();
  ProfileOptions opts;
  opts.histogram_bins = 0;
  TableProfile p = TableProfile::Compute(fx.table, opts).ValueOrDie();
  ComponentTable ct = BuildComponents(fx.table, p, fx.selection).ValueOrDie();
  EXPECT_EQ(ct.Find(ComponentKind::kDistributionShift, 0), nullptr);
  EXPECT_NE(ct.Find(ComponentKind::kRankShift, 0), nullptr);
}

TEST(NewComponentsTest, SharedEqualsTwoScanStillHolds) {
  Fixture fx = MakeFixture();
  ComponentTable a =
      BuildComponents(fx.table, fx.profile, fx.selection).ValueOrDie();
  ComponentTable b =
      BuildComponentsTwoScan(fx.table, fx.profile, fx.selection).ValueOrDie();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a.components()[i].effect.value, b.components()[i].effect.value, 1e-9);
  }
}

// -------------------------------------------------- SelectionSketches ops --

TEST(SelectionSketchesTest, AddThenRemoveIsIdentity) {
  Fixture fx = MakeFixture();
  SelectionSketches a;
  a.InitShapes(fx.table, fx.profile);
  for (size_t r : fx.selection.ToIndices()) a.AddRow(fx.table, fx.profile, r);

  SelectionSketches b = a;
  b.AddRow(fx.table, fx.profile, 1);
  b.AddRow(fx.table, fx.profile, 2);
  b.RemoveRow(fx.table, fx.profile, 2);
  b.RemoveRow(fx.table, fx.profile, 1);
  for (size_t c = 0; c < fx.table.num_columns(); ++c) {
    EXPECT_EQ(b.column_sketch(c).count, a.column_sketch(c).count);
    EXPECT_NEAR(b.column_sketch(c).sum, a.column_sketch(c).sum, 1e-9);
    EXPECT_NEAR(b.column_sketch(c).sum_sq, a.column_sketch(c).sum_sq, 1e-9);
    EXPECT_EQ(b.rank_sum(c), a.rank_sum(c));
    EXPECT_TRUE(std::ranges::equal(b.histogram(c), a.histogram(c)));
  }
}

TEST(SelectionSketchesTest, MemoryUsageReported) {
  Fixture fx = MakeFixture();
  SelectionSketches s;
  s.InitShapes(fx.table, fx.profile);
  EXPECT_GT(s.MemoryUsageBytes(), 0u);
}

// ------------------------------------------------- one preparation path --

// One read through the engine's Preparation routine over `cache`: the
// components assembled from the provided sketches, and their provenance.
struct Prepared {
  ComponentTable components;
  SketchSource source = SketchSource::kServerScan;
  size_t delta_rows = 0;
};

Prepared Prepare(const Fixture& fx, SketchCache* cache,
                 const Selection& selection) {
  const ProvidedSketches provided =
      ProvideSketches(fx.table, fx.profile, selection, selection.Fingerprint(),
                      cache, ProvideSketchesOptions{});
  SelectionSketches outside;
  outside.InitShapes(fx.table, fx.profile);
  outside.DeriveAsComplement(fx.profile, *provided.inside);
  return {BuildComponentsFromSketches(fx.table, fx.profile, selection,
                                      *provided.inside, outside,
                                      ComponentBuildOptions{})
              .ValueOrDie(),
          provided.source, provided.delta_rows};
}

ZiggyEngine MakeEngine(const Fixture& fx) {
  return ZiggyEngine::Create(fx.table).ValueOrDie();
}

TEST(EnginePreparationTest, FirstReadIsAScan) {
  Fixture fx = MakeFixture();
  ZiggyEngine engine = MakeEngine(fx);
  const Characterization r = engine.Characterize(fx.selection).ValueOrDie();
  EXPECT_EQ(r.sketch_source, SketchSource::kServerScan);
  EXPECT_EQ(r.delta_rows, 0u);
}

TEST(EnginePreparationTest, OverlappingReadIsPatched) {
  Fixture fx = MakeFixture();
  ZiggyEngine engine = MakeEngine(fx);
  ASSERT_TRUE(engine.Characterize(fx.selection).ok());
  Selection refined = fx.selection;
  refined.Set(1);  // one extra row
  refined.Set(fx.selection.ToIndices()[0], false);  // one removed
  const Characterization r = engine.Characterize(refined).ValueOrDie();
  EXPECT_EQ(r.sketch_source, SketchSource::kCachePatched);
  EXPECT_EQ(r.delta_rows, 2u);
}

TEST(EnginePreparationTest, ComplementIsScanned) {
  Fixture fx = MakeFixture();
  ZiggyEngine engine = MakeEngine(fx);
  ASSERT_TRUE(engine.Characterize(fx.selection).ok());
  // Complement: delta = whole table > |selection| / 2.
  const Characterization r =
      engine.Characterize(fx.selection.Invert()).ValueOrDie();
  EXPECT_EQ(r.sketch_source, SketchSource::kServerScan);
  EXPECT_EQ(r.delta_rows, 0u);
}

TEST(EnginePreparationTest, RejectsDegenerateSelections) {
  Fixture fx = MakeFixture();
  ZiggyEngine engine = MakeEngine(fx);
  EXPECT_TRUE(engine.Characterize(Selection(fx.table.num_rows())).status()
                  .IsFailedPrecondition());
  EXPECT_TRUE(engine.Characterize(Selection::All(fx.table.num_rows())).status()
                  .IsFailedPrecondition());
}

TEST(EnginePreparationTest, PatchedMatchesFromScratch) {
  Fixture fx = MakeFixture();
  SketchCache cache(SketchCache::kDefaultBudgetBytes);
  ASSERT_EQ(Prepare(fx, &cache, fx.selection).source,
            SketchSource::kServerScan);

  Rng rng(5);
  Selection current = fx.selection;
  for (int step = 0; step < 6; ++step) {
    // Random small perturbation of the selection.
    Selection next = current;
    for (int k = 0; k < 20; ++k) {
      const size_t r =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(
                                                    fx.table.num_rows()) -
                                                    1));
      next.Set(r, rng.Bernoulli(0.5));
    }
    if (next.Count() == 0 || next.Count() == fx.table.num_rows()) continue;
    const Prepared patched = Prepare(fx, &cache, next);
    EXPECT_EQ(patched.source, SketchSource::kCachePatched) << "step " << step;
    const ComponentTable& incremental = patched.components;
    ComponentTable scratch =
        BuildComponents(fx.table, fx.profile, next).ValueOrDie();
    ASSERT_EQ(incremental.size(), scratch.size()) << "step " << step;
    for (size_t i = 0; i < incremental.size(); ++i) {
      EXPECT_NEAR(incremental.components()[i].effect.value,
                  scratch.components()[i].effect.value, 1e-7)
          << "step " << step << " component " << i;
      EXPECT_EQ(incremental.components()[i].inside_n,
                scratch.components()[i].inside_n);
    }
    current = next;
  }
}

// -------------------------------------------------------------- engine ----

TEST(EngineIncrementalTest, RefinementUsesDelta) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  ZiggyEngine engine = ZiggyEngine::Create(std::move(ds.table)).ValueOrDie();
  Characterization r1 =
      engine.CharacterizeQuery("revenue_index > 1.2").ValueOrDie();
  EXPECT_EQ(r1.sketch_source, SketchSource::kServerScan);
  Characterization r2 =
      engine.CharacterizeQuery("revenue_index > 1.25").ValueOrDie();
  EXPECT_EQ(r2.sketch_source, SketchSource::kCachePatched);
  EXPECT_GT(r2.delta_rows, 0u);
  // And the result matches a fresh engine's answer.
  SyntheticDataset ds2 = MakeBoxOfficeDataset().ValueOrDie();
  ZiggyEngine fresh = ZiggyEngine::Create(std::move(ds2.table)).ValueOrDie();
  Characterization expect =
      fresh.CharacterizeQuery("revenue_index > 1.25").ValueOrDie();
  ASSERT_EQ(r2.views.size(), expect.views.size());
  for (size_t i = 0; i < r2.views.size(); ++i) {
    EXPECT_EQ(r2.views[i].view.columns, expect.views[i].view.columns);
    EXPECT_NEAR(r2.views[i].view.score.total, expect.views[i].view.score.total, 1e-9);
  }
}

// Property sweep: incremental equivalence across perturbation sizes.
class IncrementalEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalEquivalence, MatchesScratchAfterKFlips) {
  const int flips = GetParam();
  Fixture fx = MakeFixture(1000 + static_cast<uint64_t>(flips));
  SketchCache cache(SketchCache::kDefaultBudgetBytes);
  Prepare(fx, &cache, fx.selection);
  Rng rng(static_cast<uint64_t>(flips));
  Selection next = fx.selection;
  for (int k = 0; k < flips; ++k) {
    const size_t r = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(fx.table.num_rows()) - 1));
    next.Set(r, !next.Contains(r));
  }
  if (next.Count() == 0 || next.Count() == fx.table.num_rows()) GTEST_SKIP();
  const ComponentTable incremental = Prepare(fx, &cache, next).components;
  ComponentTable scratch = BuildComponents(fx.table, fx.profile, next).ValueOrDie();
  ASSERT_EQ(incremental.size(), scratch.size());
  for (size_t i = 0; i < incremental.size(); ++i) {
    EXPECT_NEAR(incremental.components()[i].effect.value,
                scratch.components()[i].effect.value, 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Flips, IncrementalEquivalence,
                         ::testing::Values(1, 5, 20, 100, 299));

}  // namespace
}  // namespace ziggy
