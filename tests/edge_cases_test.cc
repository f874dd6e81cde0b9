// Edge-case and failure-injection tests: degenerate tables, constant
// columns, all-null columns, single-column tables, engine option changes
// mid-session.

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "data/synthetic.h"
#include "engine/ziggy_engine.h"
#include "zig/component_builder.h"

namespace ziggy {
namespace {

TEST(EdgeCaseTest, SingleNumericColumnTable) {
  Rng rng(1);
  std::vector<double> v(100);
  for (size_t i = 0; i < v.size(); ++i) v[i] = (i < 20 ? 3.0 : 0.0) + rng.Normal();
  Table t = Table::FromColumns({Column::FromNumeric("x", v)}).ValueOrDie();
  ZiggyEngine engine = ZiggyEngine::Create(std::move(t)).ValueOrDie();
  Characterization r = engine.CharacterizeQuery("x > 2").ValueOrDie();
  ASSERT_FALSE(r.views.empty());
  EXPECT_EQ(r.views[0].view.columns, (std::vector<size_t>{0}));
}

TEST(EdgeCaseTest, ConstantColumnProducesNoSpuriousViews) {
  Rng rng(2);
  std::vector<double> sig(200);
  std::vector<double> constant(200, 7.0);
  Selection sel(200);
  for (size_t i = 0; i < 200; ++i) {
    sig[i] = (i % 5 == 0 ? 2.0 : 0.0) + rng.Normal();
    if (i % 5 == 0) sel.Set(i);
  }
  Table t = Table::FromColumns({Column::FromNumeric("sig", sig),
                                Column::FromNumeric("constant", constant)})
                .ValueOrDie();
  TableProfile p = TableProfile::Compute(t).ValueOrDie();
  ComponentTable ct = BuildComponents(t, p, sel).ValueOrDie();
  // The constant column's components must be undefined or flat; its
  // mean-shift must not look significant.
  const ZigComponent* mean_c = ct.Find(ComponentKind::kMeanShift, 1);
  ASSERT_NE(mean_c, nullptr);
  EXPECT_GT(mean_c->p_value(), 0.9);
}

TEST(EdgeCaseTest, AllNullNumericColumnIsSkipped) {
  std::vector<double> nulls(50, NullNumeric());
  std::vector<double> ok(50);
  for (size_t i = 0; i < 50; ++i) ok[i] = static_cast<double>(i);
  Table t = Table::FromColumns(
                {Column::FromNumeric("nulls", nulls), Column::FromNumeric("ok", ok)})
                .ValueOrDie();
  TableProfile p = TableProfile::Compute(t).ValueOrDie();
  Selection sel = Selection::FromIndices(50, {0, 1, 2, 3, 4, 5, 6, 7});
  ComponentTable ct = BuildComponents(t, p, sel).ValueOrDie();
  EXPECT_EQ(ct.Find(ComponentKind::kMeanShift, 0), nullptr);
  EXPECT_NE(ct.Find(ComponentKind::kMeanShift, 1), nullptr);
}

TEST(EdgeCaseTest, AllCategoricalTable) {
  Rng rng(3);
  Column a = Column::Categorical("a");
  Column b = Column::Categorical("b");
  Selection sel(300);
  for (size_t i = 0; i < 300; ++i) {
    const bool inside = i % 3 == 0;
    if (inside) sel.Set(i);
    const int64_t code = rng.UniformInt(0, 3);
    a.AppendLabel(inside && rng.Bernoulli(0.7) ? "special"
                                               : "a" + std::to_string(code));
    b.AppendLabel("b" + std::to_string(code));
  }
  Table t = Table::FromColumns({std::move(a), std::move(b)}).ValueOrDie();
  TableProfile p = TableProfile::Compute(t).ValueOrDie();
  ComponentTable ct = BuildComponents(t, p, sel).ValueOrDie();
  const ZigComponent* freq = ct.Find(ComponentKind::kFrequencyShift, 0);
  ASSERT_NE(freq, nullptr);
  EXPECT_EQ(freq->detail(), "special");
  EXPECT_LT(freq->p_value(), 1e-6);
}

TEST(EdgeCaseTest, TinySelectionOfTwoRows) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  ZiggyOptions opts;
  opts.build.min_side_rows = 3;
  ZiggyEngine engine = ZiggyEngine::Create(std::move(ds.table), opts).ValueOrDie();
  Selection sel = Selection::FromIndices(engine.table().num_rows(), {0, 1});
  // Two rows < min_side_rows: no components, hence no significant views —
  // but the call itself must succeed.
  Characterization r = engine.Characterize(sel).ValueOrDie();
  EXPECT_TRUE(r.views.empty());
}

TEST(EdgeCaseTest, SelectionOfAllButOneRow) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  ZiggyEngine engine = ZiggyEngine::Create(std::move(ds.table)).ValueOrDie();
  Selection sel = Selection::All(engine.table().num_rows());
  sel.Set(0, false);
  // Outside has a single row: components skipped, call succeeds.
  Characterization r = engine.Characterize(sel).ValueOrDie();
  EXPECT_TRUE(r.views.empty());
}

TEST(EdgeCaseTest, DuplicatedColumnValuesClusterTogether) {
  // Two identical columns have dependency 1: they must always land in the
  // same view at any MIN_tight.
  Rng rng(4);
  std::vector<double> x(400);
  for (size_t i = 0; i < x.size(); ++i) x[i] = (i % 4 == 0 ? 1.5 : 0.0) + rng.Normal();
  std::vector<double> y = x;  // exact duplicate
  std::vector<double> z(400);
  for (double& v : z) v = rng.Normal();
  Table t = Table::FromColumns({Column::FromNumeric("x", x), Column::FromNumeric("y", y),
                                Column::FromNumeric("z", z)})
                .ValueOrDie();
  ZiggyOptions opts;
  opts.search.min_tightness = 0.5;
  ZiggyEngine engine = ZiggyEngine::Create(std::move(t), opts).ValueOrDie();
  Selection sel(400);
  for (size_t i = 0; i < 400; i += 4) sel.Set(i);
  Characterization r = engine.Characterize(sel).ValueOrDie();
  for (const auto& cv : r.views) {
    const auto& cols = cv.view.columns;
    const bool has_x = std::find(cols.begin(), cols.end(), 0u) != cols.end();
    const bool has_y = std::find(cols.begin(), cols.end(), 1u) != cols.end();
    EXPECT_EQ(has_x, has_y) << "duplicate columns split across views";
  }
}

TEST(EdgeCaseTest, ChangingBuildOptionsMidSessionRebuildsCachedComponents) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  ZiggyEngine engine = ZiggyEngine::Create(std::move(ds.table)).ValueOrDie();
  const std::string query = "revenue_index > 1.2";
  const Characterization r1 = engine.CharacterizeQuery(query).ValueOrDie();
  ASSERT_FALSE(r1.views.empty());

  // Neither side has a million rows, so no component survives. The
  // repeated query's sketches still serve, since they do not depend on the
  // build options, but its components are built under the new ones.
  engine.mutable_options()->build.min_side_rows = 1000000;
  const Characterization r2 = engine.CharacterizeQuery(query).ValueOrDie();
  EXPECT_EQ(r2.sketch_source, SketchSource::kCacheExact);
  EXPECT_TRUE(r2.views.empty());

  // And back again: the first answer returns.
  engine.mutable_options()->build.min_side_rows =
      ComponentBuildOptions{}.min_side_rows;
  const Characterization r3 = engine.CharacterizeQuery(query).ValueOrDie();
  EXPECT_EQ(r3.sketch_source, SketchSource::kCacheExact);
  ASSERT_EQ(r3.views.size(), r1.views.size());
  for (size_t i = 0; i < r1.views.size(); ++i) {
    EXPECT_EQ(r3.views[i].view.columns, r1.views[i].view.columns);
  }
}

TEST(EdgeCaseTest, HugeMagnitudeValuesStayFinite) {
  std::vector<double> v(100);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = (i < 30 ? 1e15 : -1e15) + static_cast<double>(i);
  }
  Table t = Table::FromColumns({Column::FromNumeric("x", v)}).ValueOrDie();
  TableProfile p = TableProfile::Compute(t).ValueOrDie();
  Selection sel(100);
  for (size_t i = 0; i < 30; ++i) sel.Set(i);
  ComponentTable ct = BuildComponents(t, p, sel).ValueOrDie();
  for (const auto& c : ct.components()) {
    EXPECT_TRUE(std::isfinite(c.inside_value)) << ComponentKindToString(c.kind);
    EXPECT_TRUE(std::isfinite(c.p_value()));
  }
}

TEST(EdgeCaseTest, HighCardinalityCategoricalColumn) {
  // One label per row: frequency shift must stay computable and the
  // chi-square machinery must not blow up.
  Column c = Column::Categorical("id");
  std::vector<double> x(200);
  Rng rng(5);
  for (size_t i = 0; i < 200; ++i) {
    c.AppendLabel("row" + std::to_string(i));
    x[i] = rng.Normal();
  }
  Table t = Table::FromColumns({std::move(c), Column::FromNumeric("x", x)})
                .ValueOrDie();
  TableProfile p = TableProfile::Compute(t).ValueOrDie();
  Selection sel(200);
  for (size_t i = 0; i < 50; ++i) sel.Set(i);
  ComponentTable ct = BuildComponents(t, p, sel).ValueOrDie();
  const ZigComponent* freq = ct.Find(ComponentKind::kFrequencyShift, 0);
  ASSERT_NE(freq, nullptr);
  EXPECT_TRUE(std::isfinite(freq->effect.value));
}

TEST(EdgeCaseTest, MinTightnessOneYieldsOnlySingletonsOrClones) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  ZiggyOptions opts;
  opts.search.min_tightness = 1.0;
  ZiggyEngine engine = ZiggyEngine::Create(std::move(ds.table), opts).ValueOrDie();
  Characterization r = engine.CharacterizeQuery("revenue_index > 1.2").ValueOrDie();
  for (const auto& cv : r.views) {
    if (cv.view.columns.size() > 1) {
      EXPECT_GE(cv.view.tightness, 1.0 - 1e-9);
    }
  }
}

}  // namespace
}  // namespace ziggy
