// Unit tests for the zig core: TableProfile, component builder,
// ComponentTable, Zig-Dissimilarity. Includes the key shared-computation
// property: the shared one-scan preparation agrees with the two-scan
// reference.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/random.h"
#include "two_scan_reference.h"
#include "zig/component_builder.h"
#include "zig/dissimilarity.h"
#include "zig/profile.h"

namespace ziggy {
namespace {

// Test fixture table: two correlated numeric columns whose behaviour flips
// inside the selection, one independent numeric column, one categorical
// column skewed inside the selection.
struct Fixture {
  Table table;
  Selection selection;
};

Fixture MakeFixture(size_t n = 600, uint64_t seed = 42) {
  Rng rng(seed);
  std::vector<double> x(n);
  std::vector<double> y(n);
  std::vector<double> noise(n);
  std::vector<std::string> cat(n);
  Selection sel(n);
  for (size_t i = 0; i < n; ++i) {
    const bool inside = i < n / 4;  // first quarter is the selection
    if (inside) sel.Set(i);
    const double f = rng.Normal();
    if (inside) {
      // Shifted mean, inflated dispersion, broken correlation.
      x[i] = 3.0 + 2.0 * rng.Normal();
      y[i] = 3.0 + 2.0 * rng.Normal();
      cat[i] = rng.Bernoulli(0.8) ? "hot" : ("c" + std::to_string(rng.UniformInt(0, 3)));
    } else {
      x[i] = 0.9 * f + 0.44 * rng.Normal();
      y[i] = 0.9 * f + 0.44 * rng.Normal();
      cat[i] = "c" + std::to_string(rng.UniformInt(0, 3));
    }
    noise[i] = rng.Normal();
  }
  Fixture fx{Table::FromColumns({Column::FromNumeric("x", x),
                                 Column::FromNumeric("y", y),
                                 Column::FromNumeric("noise", noise),
                                 Column::FromStrings("cat", cat)})
                 .ValueOrDie(),
             sel};
  return fx;
}

// ---------------------------------------------------------------- profile --

TEST(TableProfileTest, ColumnSketchesMatchDirectStats) {
  Fixture fx = MakeFixture();
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  const auto& data = fx.table.column(0).numeric_data();
  NumericStats direct = ComputeNumericStats(data);
  EXPECT_EQ(p.ColumnSketch(0).count, direct.count);
  EXPECT_NEAR(p.ColumnSketch(0).Mean(), direct.mean, 1e-10);
  EXPECT_NEAR(p.ColumnSketch(0).StdDev(), direct.StdDev(), 1e-8);
}

TEST(TableProfileTest, DependencyMatrixSymmetricAndBounded) {
  Fixture fx = MakeFixture();
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  for (size_t i = 0; i < p.num_columns(); ++i) {
    EXPECT_DOUBLE_EQ(p.Dependency(i, i), 1.0);
    for (size_t j = 0; j < p.num_columns(); ++j) {
      EXPECT_DOUBLE_EQ(p.Dependency(i, j), p.Dependency(j, i));
      EXPECT_GE(p.Dependency(i, j), 0.0);
      EXPECT_LE(p.Dependency(i, j), 1.0);
    }
  }
}

TEST(TableProfileTest, CorrelatedPairIsTracked) {
  Fixture fx = MakeFixture();
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  // x (col 0) and y (col 1) are strongly correlated outside and the global
  // correlation is still high.
  EXPECT_GT(p.Dependency(0, 1), 0.4);
  EXPECT_GE(p.NumericPairIndex(0, 1), 0);
  EXPECT_EQ(p.NumericPairIndex(0, 1), p.NumericPairIndex(1, 0));
}

TEST(TableProfileTest, UncorrelatedPairBelowFloorNotTracked) {
  Fixture fx = MakeFixture();
  ProfileOptions opts;
  opts.pair_dependency_floor = 0.2;
  TableProfile p = TableProfile::Compute(fx.table, opts).ValueOrDie();
  EXPECT_LT(p.Dependency(0, 2), 0.2);
  EXPECT_EQ(p.NumericPairIndex(0, 2), -1);
}

TEST(TableProfileTest, MaxTrackedPairsCapHolds) {
  Fixture fx = MakeFixture();
  ProfileOptions opts;
  opts.pair_dependency_floor = 0.0;
  opts.max_tracked_pairs = 1;
  TableProfile p = TableProfile::Compute(fx.table, opts).ValueOrDie();
  EXPECT_LE(p.tracked_numeric_pairs().size(), 1u);
}

TEST(TableProfileTest, CategoryCountsStored) {
  Fixture fx = MakeFixture();
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  const auto& counts = p.CategoryCountsOf(3);
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  EXPECT_EQ(total, static_cast<int64_t>(fx.table.num_rows()));
  EXPECT_TRUE(p.CategoryCountsOf(0).empty());  // numeric column has none
}

TEST(TableProfileTest, EmptyTableRejected) {
  EXPECT_FALSE(TableProfile::Compute(Table()).ok());
}

// Numeric column of one of six shapes the pair kernel must not care
// about: plain, sparse NULLs, all NULL, constant, signed zeros, and a
// large offset.
Column PairKernelColumn(size_t kind, size_t rows, Rng* rng,
                        const std::string& name) {
  std::vector<double> v(rows);
  for (size_t r = 0; r < rows; ++r) {
    switch (kind % 6) {
      case 0:
        v[r] = rng->Normal();
        break;
      case 1:
        v[r] = rng->Bernoulli(0.2) ? NullNumeric() : rng->Normal(2.0, 3.0);
        break;
      case 2:
        v[r] = NullNumeric();
        break;
      case 3:
        v[r] = 4.25;
        break;
      case 4:
        if (rng->Bernoulli(0.5)) {
          v[r] = -0.0;
        } else {
          v[r] = rng->Bernoulli(0.5) ? 0.0 : rng->Normal();
        }
        break;
      default:
        v[r] = 1e9 + rng->Normal();
        break;
    }
  }
  return Column::FromNumeric(name, std::move(v));
}

// Every numeric pair sketch, and its dependency entry, is bitwise the
// per-row Add loop — whether the pair went through the Gram tiles (both
// columns NULL-free) or the per-pair loop, for every tile remainder, on
// degenerate row counts, and at any thread count.
TEST(TableProfileTest, PairSketchesEqualNaiveLoop) {
  for (size_t rows : {size_t{0}, size_t{1}, size_t{37}}) {
    for (size_t numeric = 0; numeric <= 9; ++numeric) {
      for (size_t shift : {size_t{0}, size_t{3}}) {
        Rng rng(1000 * rows + 10 * numeric + shift);
        std::vector<Column> columns;
        std::vector<size_t> numeric_cols;
        columns.push_back(Column::FromStrings(
            "c0", std::vector<std::string>(rows, "a")));
        for (size_t t = 0; t < numeric; ++t) {
          numeric_cols.push_back(columns.size());
          columns.push_back(PairKernelColumn(t + shift, rows, &rng,
                                             "n" + std::to_string(t)));
          if (t % 3 == 1) {
            std::vector<std::string> labels(rows);
            for (auto& l : labels) l = rng.Bernoulli(0.5) ? "x" : "y";
            columns.push_back(
                Column::FromStrings("c" + std::to_string(t), labels));
          }
        }
        const Table table = Table::FromColumns(std::move(columns)).ValueOrDie();
        for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
          ProfileOptions opts;
          opts.pair_dependency_floor = 0.0;
          opts.max_tracked_pairs = 1u << 20;
          opts.num_threads = threads;
          const TableProfile p =
              TableProfile::Compute(table, opts).ValueOrDie();
          ASSERT_EQ(p.tracked_numeric_pairs().size(),
                    numeric < 2 ? 0 : numeric * (numeric - 1) / 2);
          for (size_t i = 0; i < numeric_cols.size(); ++i) {
            for (size_t j = i + 1; j < numeric_cols.size(); ++j) {
              const size_t a = numeric_cols[i];
              const size_t b = numeric_cols[j];
              const auto& x = table.column(a).numeric_data();
              const auto& y = table.column(b).numeric_data();
              PairMomentSketch naive;
              for (size_t r = 0; r < rows; ++r) {
                if (!IsNullNumeric(x[r]) && !IsNullNumeric(y[r])) {
                  naive.Add(x[r], y[r]);
                }
              }
              const int64_t idx = p.NumericPairIndex(a, b);
              ASSERT_GE(idx, 0);
              const PairMomentSketch& got =
                  p.NumericPairSketch(static_cast<size_t>(idx));
              EXPECT_EQ(std::memcmp(&got, &naive, sizeof(naive)), 0)
                  << "rows " << rows << " pair (" << a << "," << b
                  << ") threads " << threads;
              const double dep = std::fabs(naive.Correlation());
              const double got_dep = p.Dependency(a, b);
              EXPECT_EQ(std::memcmp(&got_dep, &dep, sizeof(dep)), 0);
            }
          }
        }
      }
    }
  }
}

TEST(TableProfileTest, MemoryUsageReported) {
  Fixture fx = MakeFixture();
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  EXPECT_GT(p.MemoryUsageBytes(), 0u);
}

// ------------------------------------------------------- component builder --

TEST(ComponentBuilderTest, DetectsPlantedMeanShift) {
  Fixture fx = MakeFixture();
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  ComponentTable ct = BuildComponents(fx.table, p, fx.selection).ValueOrDie();

  const ZigComponent* mean_x = ct.Find(ComponentKind::kMeanShift, 0);
  ASSERT_NE(mean_x, nullptr);
  EXPECT_GT(mean_x->effect.value, 1.0);  // planted +3 sd shift
  EXPECT_LT(mean_x->p_value(), 1e-6);
  EXPECT_GT(mean_x->inside_value, mean_x->outside_value);

  const ZigComponent* mean_noise = ct.Find(ComponentKind::kMeanShift, 2);
  ASSERT_NE(mean_noise, nullptr);
  EXPECT_LT(std::fabs(mean_noise->effect.value), 0.4);
}

TEST(ComponentBuilderTest, DetectsPlantedDispersionShift) {
  Fixture fx = MakeFixture();
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  ComponentTable ct = BuildComponents(fx.table, p, fx.selection).ValueOrDie();
  const ZigComponent* disp = ct.Find(ComponentKind::kDispersionShift, 0);
  ASSERT_NE(disp, nullptr);
  EXPECT_GT(disp->effect.value, 0.3);  // inside sd 2 vs outside sd ~1
}

TEST(ComponentBuilderTest, DetectsPlantedCorrelationBreak) {
  Fixture fx = MakeFixture();
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  ComponentTable ct = BuildComponents(fx.table, p, fx.selection).ValueOrDie();
  const ZigComponent* corr = ct.Find(ComponentKind::kCorrelationShift, 0, 1);
  ASSERT_NE(corr, nullptr);
  EXPECT_GT(corr->outside_value, 0.7);   // strong correlation outside
  EXPECT_LT(corr->inside_value, 0.4);    // broken inside
  EXPECT_LT(corr->effect.value, -0.5);   // Fisher z difference negative
  EXPECT_LT(corr->p_value(), 1e-4);
}

TEST(ComponentBuilderTest, DetectsPlantedFrequencyShift) {
  Fixture fx = MakeFixture();
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  ComponentTable ct = BuildComponents(fx.table, p, fx.selection).ValueOrDie();
  const ZigComponent* freq = ct.Find(ComponentKind::kFrequencyShift, 3);
  ASSERT_NE(freq, nullptr);
  EXPECT_LT(freq->p_value(), 1e-6);
  EXPECT_EQ(freq->detail(), "hot");  // most over-represented category
}

TEST(ComponentBuilderTest, SharedSketchEqualsTwoScan) {
  Fixture fx = MakeFixture();
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  ComponentTable a = BuildComponents(fx.table, p, fx.selection).ValueOrDie();
  ComponentTable b =
      BuildComponentsTwoScan(fx.table, p, fx.selection).ValueOrDie();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const ZigComponent& ca = a.components()[i];
    const ZigComponent& cb = b.components()[i];
    EXPECT_EQ(ca.kind, cb.kind);
    EXPECT_EQ(ca.col_a, cb.col_a);
    EXPECT_EQ(ca.col_b, cb.col_b);
    EXPECT_EQ(ca.inside_n, cb.inside_n);
    EXPECT_EQ(ca.outside_n, cb.outside_n);
    EXPECT_NEAR(ca.effect.value, cb.effect.value, 1e-7)
        << ComponentKindToString(ca.kind) << " col " << ca.col_a;
    EXPECT_NEAR(ca.p_value(), cb.p_value(), 1e-7);
  }
}

TEST(ComponentBuilderTest, EmptySelectionRejected) {
  Fixture fx = MakeFixture();
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  Selection empty(fx.table.num_rows());
  EXPECT_TRUE(BuildComponents(fx.table, p, empty).status().IsFailedPrecondition());
}

TEST(ComponentBuilderTest, FullSelectionRejected) {
  Fixture fx = MakeFixture();
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  EXPECT_TRUE(BuildComponents(fx.table, p, Selection::All(fx.table.num_rows()))
                  .status()
                  .IsFailedPrecondition());
}

TEST(ComponentBuilderTest, SizeMismatchRejected) {
  Fixture fx = MakeFixture();
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  EXPECT_TRUE(BuildComponents(fx.table, p, Selection(3)).status().IsInvalidArgument());
}

TEST(ComponentBuilderTest, MinSideRowsSkipsTinyComponents) {
  Fixture fx = MakeFixture(600);
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  Selection tiny = Selection::FromIndices(fx.table.num_rows(), {0, 1});
  ComponentBuildOptions opts;
  opts.min_side_rows = 5;
  ComponentTable ct = BuildComponents(fx.table, p, tiny, opts).ValueOrDie();
  EXPECT_EQ(ct.size(), 0u);  // every component skipped: inside too small
}

TEST(ComponentBuilderTest, CountsExposed) {
  Fixture fx = MakeFixture(600);
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  ComponentTable ct = BuildComponents(fx.table, p, fx.selection).ValueOrDie();
  EXPECT_EQ(ct.inside_count(), 150);
  EXPECT_EQ(ct.outside_count(), 450);
}

// --------------------------------------------------------- component table --

TEST(ComponentTableTest, FindIsOrderInsensitiveForPairs) {
  Fixture fx = MakeFixture();
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  ComponentTable ct = BuildComponents(fx.table, p, fx.selection).ValueOrDie();
  EXPECT_EQ(ct.Find(ComponentKind::kCorrelationShift, 0, 1),
            ct.Find(ComponentKind::kCorrelationShift, 1, 0));
}

TEST(ComponentTableTest, ForColumnFindsAllKinds) {
  Fixture fx = MakeFixture();
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  ComponentTable ct = BuildComponents(fx.table, p, fx.selection).ValueOrDie();
  auto comps = ct.ForColumn(0);
  bool has_mean = false;
  bool has_disp = false;
  for (const auto* c : comps) {
    has_mean |= c->kind == ComponentKind::kMeanShift;
    has_disp |= c->kind == ComponentKind::kDispersionShift;
  }
  EXPECT_TRUE(has_mean);
  EXPECT_TRUE(has_disp);
}

TEST(ComponentTableTest, NormalizedMagnitudeInUnitInterval) {
  Fixture fx = MakeFixture();
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  ComponentTable ct = BuildComponents(fx.table, p, fx.selection).ValueOrDie();
  for (const auto& c : ct.components()) {
    const double m = ct.NormalizedMagnitude(c);
    EXPECT_GE(m, 0.0);
    EXPECT_LE(m, 1.0);
  }
}

TEST(ComponentTableTest, ScalesPositive) {
  Fixture fx = MakeFixture();
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  ComponentTable ct = BuildComponents(fx.table, p, fx.selection).ValueOrDie();
  for (size_t k = 0; k < kNumComponentKinds; ++k) {
    EXPECT_GT(ct.NormalizationScale(static_cast<ComponentKind>(k)), 0.0);
  }
}

// ----------------------------------------------------------- dissimilarity --

TEST(DissimilarityTest, ShiftedViewOutscoresNoise) {
  Fixture fx = MakeFixture();
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  ComponentTable ct = BuildComponents(fx.table, p, fx.selection).ValueOrDie();
  ZigWeights w;
  const double shifted = ZigDissimilarity(ct, {0, 1}, w);
  const double noise = ZigDissimilarity(ct, {2}, w);
  EXPECT_GT(shifted, noise);
}

TEST(DissimilarityTest, EmptyViewScoresZero) {
  Fixture fx = MakeFixture();
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  ComponentTable ct = BuildComponents(fx.table, p, fx.selection).ValueOrDie();
  EXPECT_DOUBLE_EQ(ZigDissimilarity(ct, {}, ZigWeights{}), 0.0);
}

TEST(DissimilarityTest, WeightsSteerTheScore) {
  Fixture fx = MakeFixture();
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  ComponentTable ct = BuildComponents(fx.table, p, fx.selection).ValueOrDie();
  // The categorical column only carries a frequency shift: zeroing the
  // frequency weight must zero its score.
  ZigWeights only_freq;
  only_freq.mean_shift = only_freq.dispersion_shift = only_freq.correlation_shift = 0;
  only_freq.association_shift = only_freq.contingency_shift = 0;
  only_freq.frequency_shift = 1.0;
  EXPECT_GT(ZigDissimilarity(ct, {3}, only_freq), 0.0);
  ZigWeights no_freq;
  no_freq.frequency_shift = 0.0;
  no_freq.association_shift = 0.0;
  no_freq.contingency_shift = 0.0;
  EXPECT_DOUBLE_EQ(ZigDissimilarity(ct, {3}, no_freq), 0.0);
}

TEST(DissimilarityTest, BreakdownCountsComponents) {
  Fixture fx = MakeFixture();
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  ComponentTable ct = BuildComponents(fx.table, p, fx.selection).ValueOrDie();
  ScoreBreakdown sb = ScoreView(ct, {0, 1}, ZigWeights{});
  EXPECT_EQ(sb.count_per_kind[static_cast<size_t>(ComponentKind::kMeanShift)], 2u);
  EXPECT_EQ(sb.count_per_kind[static_cast<size_t>(ComponentKind::kCorrelationShift)],
            1u);
  EXPECT_GT(sb.total, 0.0);
}

TEST(DissimilarityTest, ScoreIsInUnitInterval) {
  Fixture fx = MakeFixture();
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  ComponentTable ct = BuildComponents(fx.table, p, fx.selection).ValueOrDie();
  for (const std::vector<size_t>& cols :
       {std::vector<size_t>{0}, {1}, {2}, {3}, {0, 1}, {0, 1, 2, 3}}) {
    const double s = ZigDissimilarity(ct, cols, ZigWeights{});
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

// Property sweep: shared-vs-two-scan equivalence across selection shapes.
class PreparationEquivalence : public ::testing::TestWithParam<double> {};

TEST_P(PreparationEquivalence, AgreesForSelectionFraction) {
  const double frac = GetParam();
  Fixture fx = MakeFixture(400, 99);
  Rng rng(1234);
  Selection sel(fx.table.num_rows());
  for (size_t i = 0; i < fx.table.num_rows(); ++i) {
    if (rng.Bernoulli(frac)) sel.Set(i);
  }
  if (sel.Count() == 0 || sel.Count() == fx.table.num_rows()) GTEST_SKIP();
  TableProfile p = TableProfile::Compute(fx.table).ValueOrDie();
  ComponentTable a = BuildComponents(fx.table, p, sel).ValueOrDie();
  ComponentTable b = BuildComponentsTwoScan(fx.table, p, sel).ValueOrDie();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a.components()[i].effect.value, b.components()[i].effect.value, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Fractions, PreparationEquivalence,
                         ::testing::Values(0.02, 0.1, 0.25, 0.5, 0.75, 0.95));

}  // namespace
}  // namespace ziggy
