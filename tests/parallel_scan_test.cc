// Tests for the columnar blocked scan pipeline: the packed word bitmap
// Selection, the ParallelFor utility, the bit-identity of blocked and
// column-partitioned parallel sketch accumulation, and of the signed block
// patch (ApplyDelta), with the row-at-a-time reference path, and the
// footprint of a scan result.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "data/synthetic.h"
#include "two_scan_reference.h"
#include "zig/component_builder.h"
#include "zig/profile.h"
#include "zig/selection_sketches.h"

namespace ziggy {
namespace {

// ----------------------------------------------------- packed Selection --

// Word-boundary sizes: one under, exactly one word, one over.
class SelectionWordBoundaryTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SelectionWordBoundaryTest, AllCountInvertRoundTrip) {
  const size_t n = GetParam();
  Selection all = Selection::All(n);
  EXPECT_EQ(all.num_rows(), n);
  EXPECT_EQ(all.Count(), n);
  for (size_t r = 0; r < n; ++r) EXPECT_TRUE(all.Contains(r)) << r;

  Selection none = all.Invert();
  EXPECT_EQ(none.Count(), 0u);
  EXPECT_EQ(none.Invert(), all);
  // The tail word's unused bits must stay zero or Count overshoots.
  EXPECT_EQ(none.Invert().Count(), n);
}

TEST_P(SelectionWordBoundaryTest, SetAndOrJaccardAtBoundaries) {
  const size_t n = GetParam();
  Selection a(n);
  Selection b(n);
  a.Set(0);
  a.Set(n - 1);
  b.Set(n - 1);
  EXPECT_EQ(a.Count(), n > 1 ? 2u : 1u);
  EXPECT_EQ(a.And(b).ToIndices(), (std::vector<size_t>{n - 1}));
  EXPECT_EQ(a.Or(b), a);
  if (n > 1) {
    EXPECT_DOUBLE_EQ(a.Jaccard(b), 0.5);
    EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  }
  a.Set(n - 1, false);
  EXPECT_FALSE(a.Contains(n - 1));
}

TEST_P(SelectionWordBoundaryTest, ForEachSetBitVisitsAscending) {
  const size_t n = GetParam();
  std::vector<size_t> expect;
  Selection s(n);
  for (size_t r = 0; r < n; r += 7) {
    s.Set(r);
    expect.push_back(r);
  }
  std::vector<size_t> got;
  s.ForEachSetBit([&got](size_t r) { got.push_back(r); });
  EXPECT_EQ(got, expect);
  EXPECT_EQ(s.ToIndices(), expect);
}

INSTANTIATE_TEST_SUITE_P(WordBoundaries, SelectionWordBoundaryTest,
                         ::testing::Values(1, 63, 64, 65, 127, 128, 129));

TEST(SelectionTest, CountWordRangePartitionsTotal) {
  Rng rng(5);
  Selection s(1000);
  for (size_t r = 0; r < 1000; ++r) {
    if (rng.Bernoulli(0.3)) s.Set(r);
  }
  size_t total = 0;
  for (size_t w = 0; w < s.num_words(); ++w) total += s.CountWordRange(w, w + 1);
  EXPECT_EQ(total, s.Count());
  EXPECT_EQ(s.CountWordRange(0, s.num_words()), s.Count());
}

TEST(SelectionTest, FromBytesMatchesSets) {
  std::vector<uint8_t> flags = {1, 0, 0, 1, 1, 0};
  Selection s = Selection::FromBytes(flags);
  EXPECT_EQ(s.ToIndices(), (std::vector<size_t>{0, 3, 4}));
}

TEST(SelectionTest, FingerprintSensitiveToLength) {
  // Same (empty) selected set, different row counts: distinct cache keys.
  EXPECT_NE(Selection(63).Fingerprint(), Selection(64).Fingerprint());
}

// ---------------------------------------------------------- ParallelFor --

TEST(ParallelForTest, PartitionIsDeterministicAndComplete) {
  const auto ranges = PartitionTasks(10, 3);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0].begin, 0u);
  EXPECT_EQ(ranges[0].end, 4u);  // 10 = 4 + 3 + 3
  EXPECT_EQ(ranges[1].end, 7u);
  EXPECT_EQ(ranges[2].end, 10u);
  EXPECT_TRUE(PartitionTasks(0, 4).empty());
  // Never more ranges than tasks.
  EXPECT_EQ(PartitionTasks(2, 8).size(), 2u);
}

TEST(ParallelForTest, EveryTaskRunsExactlyOnce) {
  for (size_t threads : {1u, 2u, 4u}) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    ParallelForEach(threads, hits.size(), [&hits](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << i;
  }
}

TEST(ParallelForTest, EffectiveThreadsResolvesZero) {
  EXPECT_GE(EffectiveThreads(0), 1u);
  EXPECT_EQ(EffectiveThreads(3), 3u);
}

// ------------------------------------- blocked / parallel accumulation --

struct Fixture {
  Table table;
  TableProfile profile;
};

// A table exercising every sketch family: correlated numerics (tracked
// numeric pair), a categorical driving grouped moments and a contingency
// table with a second categorical, NULLs in both kinds.
Fixture MakeFixture(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  std::vector<double> y(n);
  std::vector<std::string> cat_a(n);
  std::vector<std::string> cat_b(n);
  for (size_t i = 0; i < n; ++i) {
    const double f = rng.Normal();
    x[i] = rng.Bernoulli(0.02) ? NullNumeric() : f + 0.3 * rng.Normal();
    y[i] = rng.Bernoulli(0.02) ? NullNumeric() : f + 0.3 * rng.Normal();
    const int g = rng.UniformInt(0, 3);
    cat_a[i] = rng.Bernoulli(0.02) ? "" : "a" + std::to_string(g);
    cat_b[i] = rng.Bernoulli(0.02) ? "" : "b" + std::to_string((g + rng.UniformInt(0, 1)) % 4);
  }
  Table t = Table::FromColumns({Column::FromNumeric("x", x),
                                Column::FromNumeric("y", y),
                                Column::FromStrings("ca", cat_a),
                                Column::FromStrings("cb", cat_b)})
                .ValueOrDie();
  TableProfile p = TableProfile::Compute(t).ValueOrDie();
  return {std::move(t), std::move(p)};
}

Selection MakeSelection(size_t n, double density, uint64_t seed) {
  Rng rng(seed);
  Selection s(n);
  for (size_t r = 0; r < n; ++r) {
    if (rng.Bernoulli(density)) s.Set(r);
  }
  return s;
}

// Row-at-a-time reference: the exact accumulation the seed engine did.
SelectionSketches ReferenceSketches(const Fixture& fx, const Selection& sel) {
  SelectionSketches ref;
  ref.InitShapes(fx.table, fx.profile);
  for (size_t r = 0; r < fx.table.num_rows(); ++r) {
    if (sel.Contains(r)) ref.AddRow(fx.table, fx.profile, r);
  }
  return ref;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Bitwise equality of every statistic: a signed zero or a last-ULP
// difference fails.
void ExpectBitIdentical(const Fixture& fx, const SelectionSketches& a,
                        const SelectionSketches& b) {
  const auto same_moment = [](const MomentSketch& u, const MomentSketch& v) {
    return u.count == v.count && Bits(u.sum) == Bits(v.sum) &&
           Bits(u.sum_sq) == Bits(v.sum_sq);
  };
  for (size_t c = 0; c < fx.table.num_columns(); ++c) {
    EXPECT_TRUE(same_moment(a.column_sketch(c), b.column_sketch(c)))
        << "col " << c;
    EXPECT_EQ(a.rank_sum(c), b.rank_sum(c)) << "col " << c;
    EXPECT_TRUE(std::ranges::equal(a.category_counts(c), b.category_counts(c)))
        << "col " << c;
    EXPECT_TRUE(std::ranges::equal(a.histogram(c), b.histogram(c)))
        << "col " << c;
  }
  for (size_t i = 0; i < fx.profile.tracked_numeric_pairs().size(); ++i) {
    const PairMomentSketch& pa = a.numeric_pair_sketch(i);
    const PairMomentSketch& pb = b.numeric_pair_sketch(i);
    EXPECT_EQ(pa.count, pb.count) << "pair " << i;
    EXPECT_EQ(std::memcmp(&pa, &pb, sizeof(PairMomentSketch)), 0)
        << "pair " << i;
  }
  for (size_t i = 0; i < fx.profile.tracked_mixed_pairs().size(); ++i) {
    const std::span<const MomentSketch> ga = a.mixed_pair_groups(i);
    const std::span<const MomentSketch> gb = b.mixed_pair_groups(i);
    ASSERT_EQ(ga.size(), gb.size());
    for (size_t g = 0; g < ga.size(); ++g) {
      EXPECT_TRUE(same_moment(ga[g], gb[g])) << "mixed " << i << " group " << g;
    }
  }
  for (size_t i = 0; i < fx.profile.tracked_categorical_pairs().size(); ++i) {
    EXPECT_TRUE(std::ranges::equal(a.categorical_pair_table(i),
                                   b.categorical_pair_table(i)));
  }
  EXPECT_TRUE(a.Equals(b));
}

TEST(ColumnarAccumulationTest, SingleThreadBitIdenticalAcrossDensities) {
  const Fixture fx = MakeFixture(2500, 11);
  // Densities from the spec: empty, sparse, balanced, near-full.
  for (double density : {0.0, 0.01, 0.5, 0.99}) {
    const Selection sel = MakeSelection(fx.table.num_rows(), density, 23);
    const SelectionSketches ref = ReferenceSketches(fx, sel);
    SelectionSketches columnar;
    columnar.InitShapes(fx.table, fx.profile);
    columnar.AccumulateColumns(fx.table, fx.profile, sel);
    ExpectBitIdentical(fx, ref, columnar);
  }
}

TEST(ColumnarAccumulationTest, BlockSizeDoesNotChangeResults) {
  const Fixture fx = MakeFixture(1500, 13);
  const Selection sel = MakeSelection(fx.table.num_rows(), 0.4, 29);
  const SelectionSketches ref = ReferenceSketches(fx, sel);
  for (size_t block_rows : {64u, 128u, 1000u, 1u << 20}) {
    SelectionSketches columnar;
    columnar.InitShapes(fx.table, fx.profile);
    columnar.AccumulateColumns(fx.table, fx.profile, sel, block_rows);
    ExpectBitIdentical(fx, ref, columnar);
  }
}

TEST(ColumnarAccumulationTest, ParallelMatchesReferenceAcrossThreadCounts) {
  const Fixture fx = MakeFixture(3000, 17);
  for (double density : {0.0, 0.01, 0.5, 0.99}) {
    const Selection sel = MakeSelection(fx.table.num_rows(), density, 31);
    const SelectionSketches ref = ReferenceSketches(fx, sel);
    for (size_t threads : {1u, 2u, 4u}) {
      // The column partition leaves every accumulator's order unchanged.
      const SelectionSketches built =
          SelectionSketches::Build(fx.table, fx.profile, sel, threads);
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ExpectBitIdentical(fx, ref, built);
    }
  }
}

TEST(ColumnarAccumulationTest, ComponentTablesEquivalentAcrossThreadCounts) {
  const Fixture fx = MakeFixture(2000, 21);
  const Selection sel = MakeSelection(fx.table.num_rows(), 0.25, 41);
  ComponentBuildOptions opts;
  opts.num_threads = 1;
  const ComponentTable base =
      BuildComponents(fx.table, fx.profile, sel, opts).ValueOrDie();
  for (size_t threads : {0u, 2u, 4u}) {
    ComponentBuildOptions topts = opts;
    topts.num_threads = threads;
    const ComponentTable parallel =
        BuildComponents(fx.table, fx.profile, sel, topts).ValueOrDie();
    ASSERT_EQ(base.components().size(), parallel.components().size());
    for (size_t i = 0; i < base.components().size(); ++i) {
      const ZigComponent& cb = base.components()[i];
      const ZigComponent& cp = parallel.components()[i];
      EXPECT_EQ(cb.kind, cp.kind);
      EXPECT_EQ(cb.col_a, cp.col_a);
      EXPECT_EQ(cb.col_b, cp.col_b);
      EXPECT_EQ(cb.effect.value, cp.effect.value);
      EXPECT_EQ(cb.effect.std_error, cp.effect.std_error);
      EXPECT_EQ(cb.inside_value, cp.inside_value);
      EXPECT_EQ(cb.outside_value, cp.outside_value);
      EXPECT_EQ(cb.inside_n, cp.inside_n);
      EXPECT_EQ(cb.outside_n, cp.outside_n);
    }
  }
}

TEST(ColumnarAccumulationTest, TwoScanReferenceUsesColumnarPathAndAgrees) {
  const Fixture fx = MakeFixture(1200, 43);
  const Selection sel = MakeSelection(fx.table.num_rows(), 0.3, 47);
  ComponentBuildOptions two_scan;
  two_scan.num_threads = 2;
  const ComponentTable a =
      BuildComponents(fx.table, fx.profile, sel).ValueOrDie();
  const ComponentTable b =
      BuildComponentsTwoScan(fx.table, fx.profile, sel, two_scan).ValueOrDie();
  ASSERT_EQ(a.components().size(), b.components().size());
  for (size_t i = 0; i < a.components().size(); ++i) {
    EXPECT_NEAR(a.components()[i].inside_value, b.components()[i].inside_value, 1e-7);
    EXPECT_NEAR(a.components()[i].outside_value, b.components()[i].outside_value,
                1e-7);
  }
}

TEST(ColumnarAccumulationTest, ProfileIndependentOfThreadCount) {
  const Fixture fx = MakeFixture(800, 51);
  ProfileOptions po;
  po.num_threads = 4;
  const TableProfile threaded = TableProfile::Compute(fx.table, po).ValueOrDie();
  EXPECT_TRUE(fx.profile.Equals(threaded));
}

// ------------------------------------------- tiled unary scan, wide ---

// Numeric column shapes cycled through by MakeWideFixture: each one is a
// case the tiled unary kernel must reproduce exactly.
enum class NumericShape {
  kNullHolding,  // correlated with the hidden factor, ~5% NULL
  kAllNull,
  kConstant,     // degenerate histogram binner
  kSignedZero,   // -0.0 and +0.0 mixed with a few small values
  kOffset,       // 1e9 + correlated value: large mean, small spread
  kAntiCorrelated,
  kMostlyNull,   // correlated, ~85% NULL (not cycled by MakeWideFixture)
  kNullFree,     // correlated, no NULL (not cycled by MakeWideFixture)
};
constexpr NumericShape kShapes[] = {
    NumericShape::kNullHolding, NumericShape::kAllNull,
    NumericShape::kConstant,    NumericShape::kSignedZero,
    NumericShape::kOffset,      NumericShape::kAntiCorrelated};

double ShapedValue(NumericShape shape, double f, Rng* rng) {
  switch (shape) {
    case NumericShape::kNullHolding:
      return rng->Bernoulli(0.05) ? NullNumeric() : f + 0.3 * rng->Normal();
    case NumericShape::kAllNull:
      return NullNumeric();
    case NumericShape::kConstant:
      return 7.5;
    case NumericShape::kSignedZero:
      if (rng->Bernoulli(0.1)) return 1e-3 * rng->Normal();
      return rng->Bernoulli(0.5) ? -0.0 : 0.0;
    case NumericShape::kOffset:
      return 1e9 + f + 0.3 * rng->Normal();
    case NumericShape::kAntiCorrelated:
      return rng->Bernoulli(0.1) ? NullNumeric() : -2.0 * f + rng->Normal();
    case NumericShape::kMostlyNull:
      return rng->Bernoulli(0.85) ? NullNumeric() : f + 0.3 * rng->Normal();
    case NumericShape::kNullFree:
      return f + 0.3 * rng->Normal();
  }
  return 0.0;
}

// One numeric column per entry of `shapes` with a categorical after every
// second one, plus a leading categorical, so numeric tiles are interleaved
// with categorical columns. Correlated numerics and categoricals give the
// profile tracked pairs of all three kinds, at most `max_tracked_pairs`
// of each.
Fixture MakeShapedFixture(
    size_t n, const std::vector<NumericShape>& shapes, uint64_t seed,
    size_t histogram_bins = 16,
    size_t max_tracked_pairs = ProfileOptions{}.max_tracked_pairs) {
  Rng rng(seed);
  std::vector<double> factor(n);
  for (double& f : factor) f = rng.Normal();
  std::vector<Column> columns;
  const auto add_categorical = [&](size_t k) {
    std::vector<std::string> labels(n);
    for (size_t i = 0; i < n; ++i) {
      const int g = factor[i] > 0.5 ? 2 : (factor[i] > -0.5 ? 1 : 0);
      labels[i] = rng.Bernoulli(0.03)
                      ? ""
                      : "g" + std::to_string((g + rng.UniformInt(0, 1)) % 3);
    }
    columns.push_back(Column::FromStrings("c" + std::to_string(k), labels));
  };
  add_categorical(0);
  for (size_t k = 0; k < shapes.size(); ++k) {
    std::vector<double> values(n);
    for (size_t i = 0; i < n; ++i) {
      values[i] = ShapedValue(shapes[k], factor[i], &rng);
    }
    columns.push_back(Column::FromNumeric("x" + std::to_string(k), values));
    if (k % 2 == 1) add_categorical(k + 1);
  }
  Table t = Table::FromColumns(std::move(columns)).ValueOrDie();
  ProfileOptions po;
  po.histogram_bins = histogram_bins;
  po.max_tracked_pairs = max_tracked_pairs;
  TableProfile p = TableProfile::Compute(t, po).ValueOrDie();
  return {std::move(t), std::move(p)};
}

// `numeric` numeric columns with shapes cycled from `first_shape`, so
// every tile remainder occurs as `numeric` runs over 0..9.
Fixture MakeWideFixture(size_t n, size_t numeric, uint64_t seed,
                        size_t histogram_bins = 16, size_t first_shape = 0) {
  std::vector<NumericShape> shapes;
  for (size_t k = 0; k < numeric; ++k) {
    shapes.push_back(kShapes[(first_shape + k) % std::size(kShapes)]);
  }
  return MakeShapedFixture(n, shapes, seed, histogram_bins);
}

TEST(TiledScanTest, EveryTileRemainderIsBitIdenticalToAddRow) {
  for (size_t numeric = 0; numeric <= 9; ++numeric) {
    for (size_t first_shape : {0u, 3u}) {
      SCOPED_TRACE("numeric=" + std::to_string(numeric) +
                   " first_shape=" + std::to_string(first_shape));
      const Fixture fx = MakeWideFixture(1300, numeric, 100 + numeric, 16,
                                         first_shape);
      for (double density : {0.0, 0.05, 0.5, 1.0}) {
        const Selection sel = MakeSelection(fx.table.num_rows(), density, 7);
        SelectionSketches columnar;
        columnar.InitShapes(fx.table, fx.profile);
        columnar.AccumulateColumns(fx.table, fx.profile, sel);
        ExpectBitIdentical(fx, ReferenceSketches(fx, sel), columnar);
      }
    }
  }
}

TEST(TiledScanTest, WideFixtureTracksPairsOfEveryKind) {
  // Guards the fixture: without tracked pairs the gather stripes would go
  // unread and the tests above would not cover them.
  const Fixture fx = MakeWideFixture(1300, 9, 109);
  EXPECT_FALSE(fx.profile.tracked_numeric_pairs().empty());
  EXPECT_FALSE(fx.profile.tracked_mixed_pairs().empty());
  EXPECT_FALSE(fx.profile.tracked_categorical_pairs().empty());
}

TEST(TiledScanTest, HistogramlessProfileIsBitIdentical) {
  for (size_t numeric : {1u, 4u, 7u}) {
    const Fixture fx = MakeWideFixture(900, numeric, 200 + numeric,
                                       /*histogram_bins=*/0);
    for (size_t c = 0; c < fx.table.num_columns(); ++c) {
      ASSERT_TRUE(fx.profile.HistogramCountsOf(c).empty());
    }
    const Selection sel = MakeSelection(fx.table.num_rows(), 0.4, 9);
    ExpectBitIdentical(fx, ReferenceSketches(fx, sel),
                       SelectionSketches::Build(fx.table, fx.profile, sel));
  }
}

TEST(TiledScanTest, BlockSizesSplittingTheTableAreBitIdentical) {
  // 2500 rows: every block size below leaves a partial last block, and
  // 100 rounds down to one 64-row word per block.
  const Fixture fx = MakeWideFixture(2500, 9, 301);
  const Selection sel = MakeSelection(fx.table.num_rows(), 0.3, 11);
  const SelectionSketches ref = ReferenceSketches(fx, sel);
  for (size_t block_rows : {64u, 100u, 192u, 1000u, 4096u}) {
    SCOPED_TRACE("block_rows=" + std::to_string(block_rows));
    SelectionSketches columnar;
    columnar.InitShapes(fx.table, fx.profile);
    columnar.AccumulateColumns(fx.table, fx.profile, sel, block_rows);
    ExpectBitIdentical(fx, ref, columnar);
  }
}

TEST(TiledScanTest, ThreadCountsMatchPartitionedAddRowExactly) {
  const Fixture fx = MakeWideFixture(3000, 8, 401);
  for (double density : {0.02, 0.5}) {
    const Selection sel = MakeSelection(fx.table.num_rows(), density, 13);
    const SelectionSketches ref = ReferenceSketches(fx, sel);
    for (size_t threads : {1u, 2u, 4u}) {
      for (size_t block_rows : {0u, 128u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " block_rows=" + std::to_string(block_rows));
        ExpectBitIdentical(fx, ref,
                           SelectionSketches::Build(fx.table, fx.profile, sel,
                                                    threads, block_rows));
      }
    }
  }
}

// The column-partitioned scan on the three demo tables and on edge
// columns: every (threads, block size) pair must reproduce the ascending
// AddRow reference bit for bit. 8 threads exceed the core count and, on
// the edge fixture, nearly the column count.
TEST(ColumnPartitionedScanTest, DemoAndEdgeTablesBitIdenticalAtAnyThreadCount) {
  std::vector<std::pair<std::string, Fixture>> fixtures;
  std::vector<Selection> selections;
  for (const auto& [name, make] :
       std::vector<std::pair<std::string, Result<SyntheticDataset> (*)()>>{
           {"crime", +[] { return MakeCrimeDataset(); }},
           {"oecd", +[] { return MakeOecdDataset(); }},
           {"box", +[] { return MakeBoxOfficeDataset(); }}}) {
    SyntheticDataset ds = make().ValueOrDie();
    TableProfile profile = TableProfile::Compute(ds.table).ValueOrDie();
    selections.push_back(std::move(ds.planted));
    fixtures.emplace_back(name,
                          Fixture{std::move(ds.table), std::move(profile)});
  }
  // 7 numeric columns (not a multiple of the tile width of 4), among them
  // an 85%-NULL, a constant and an all-NULL column.
  Fixture edge = MakeShapedFixture(
      2100,
      {NumericShape::kNullHolding, NumericShape::kMostlyNull,
       NumericShape::kConstant, NumericShape::kAllNull,
       NumericShape::kAntiCorrelated, NumericShape::kOffset,
       NumericShape::kMostlyNull},
      811);
  ASSERT_FALSE(edge.profile.tracked_numeric_pairs().empty());
  ASSERT_FALSE(edge.profile.tracked_mixed_pairs().empty());
  ASSERT_FALSE(edge.profile.tracked_categorical_pairs().empty());
  selections.push_back(MakeSelection(edge.table.num_rows(), 0.3, 17));
  fixtures.emplace_back("edge", std::move(edge));

  for (size_t f = 0; f < fixtures.size(); ++f) {
    const auto& [name, fx] = fixtures[f];
    const Selection& sel = selections[f];
    const SelectionSketches ref = ReferenceSketches(fx, sel);
    for (size_t threads : {1u, 2u, 3u, 4u, 8u}) {
      for (size_t block_rows : {0u, 128u, 192u}) {
        SCOPED_TRACE(name + " threads=" + std::to_string(threads) +
                     " block_rows=" + std::to_string(block_rows));
        ExpectBitIdentical(fx, ref,
                           SelectionSketches::Build(fx.table, fx.profile, sel,
                                                    threads, block_rows));
      }
    }
  }
}

TEST(TiledScanTest, WorkspaceReuseAcrossTablesOnOneThread) {
  // The gather workspace is per thread and outlives each scan: a narrow
  // scan after a wide one runs on a larger, dirty workspace, and a wide
  // scan after a narrow one must grow it. Each result stays exact.
  const Fixture wide = MakeWideFixture(5000, 9, 601);
  const Fixture narrow = MakeWideFixture(300, 2, 602);
  const Selection wide_sel = MakeSelection(wide.table.num_rows(), 0.6, 31);
  const Selection narrow_sel = MakeSelection(narrow.table.num_rows(), 0.6, 32);
  for (int round = 0; round < 2; ++round) {
    ExpectBitIdentical(wide, ReferenceSketches(wide, wide_sel),
                       SelectionSketches::Build(wide.table, wide.profile,
                                                wide_sel));
    ExpectBitIdentical(narrow, ReferenceSketches(narrow, narrow_sel),
                       SelectionSketches::Build(narrow.table, narrow.profile,
                                                narrow_sel));
  }
}

// ------------------------------------------------- tiled pair passes ---

// Whether `threads` partitions of the pair range cut a run of mixed pairs
// that share a categorical column.
bool PartitionCutsMixedRun(const TableProfile& profile, size_t threads) {
  const size_t first = profile.tracked_numeric_pairs().size();
  const auto& mpairs = profile.tracked_mixed_pairs();
  const size_t total = first + mpairs.size() +
                       profile.tracked_categorical_pairs().size();
  for (const TaskRange& range : PartitionTasks(total, threads)) {
    const size_t b = range.begin;
    if (b > first && b < first + mpairs.size() &&
        mpairs[b - first - 1].first == mpairs[b - first].first) {
      return true;
    }
  }
  return false;
}

// Five NULL-free numerics (their pairs go through the sum_xy tiles), one
// NULL-holding numeric (its pairs keep the per-pair loop) and categoricals
// with NULL codes, each heading a run of mixed pairs with the numerics it
// groups, every pair family capped at `cap`. Caps 1..10 walk the sum_xy
// tile remainders and runs of 1 to 6 mixed pairs.
constexpr size_t kMaxPairCap = 10;

Fixture MakePairCapFixture(size_t cap) {
  return MakeShapedFixture(
      1500,
      {NumericShape::kNullFree, NumericShape::kNullFree,
       NumericShape::kNullHolding, NumericShape::kNullFree,
       NumericShape::kNullFree, NumericShape::kNullFree},
      900, 16, cap);
}

TEST(TiledPairScanTest, TileRemaindersAndMixedRunsAreBitIdenticalToAddRow) {
  // 3% selections leave 64-row blocks with fewer rows than groups, 50%
  // ones sort every block.
  std::set<size_t> remainders;
  std::set<size_t> run_lengths;
  bool cut_run = false;
  for (size_t cap = 1; cap <= kMaxPairCap; ++cap) {
    const Fixture fx = MakePairCapFixture(cap);
    const size_t rows = fx.table.num_rows();
    size_t null_free_pairs = 0;
    for (const auto& [a, b] : fx.profile.tracked_numeric_pairs()) {
      null_free_pairs +=
          static_cast<size_t>(fx.profile.ColumnSketch(a).count) == rows &&
          static_cast<size_t>(fx.profile.ColumnSketch(b).count) == rows;
    }
    remainders.insert(null_free_pairs % 4);
    const auto& mpairs = fx.profile.tracked_mixed_pairs();
    for (size_t p = 0, run = 1; p < mpairs.size(); ++p, ++run) {
      if (p + 1 == mpairs.size() || mpairs[p + 1].first != mpairs[p].first) {
        run_lengths.insert(run);
        run = 0;
      }
    }
    for (double density : {0.03, 0.5}) {
      const Selection sel = MakeSelection(rows, density, 19);
      const SelectionSketches ref = ReferenceSketches(fx, sel);
      for (size_t threads : {1u, 2u, 3u, 4u, 8u}) {
        cut_run = cut_run || PartitionCutsMixedRun(fx.profile, threads);
        for (size_t block_rows : {64u, 1000u, 0u}) {
          SCOPED_TRACE("cap=" + std::to_string(cap) +
                       " density=" + std::to_string(density) +
                       " threads=" + std::to_string(threads) +
                       " block_rows=" + std::to_string(block_rows));
          ExpectBitIdentical(fx, ref,
                             SelectionSketches::Build(fx.table, fx.profile,
                                                      sel, threads,
                                                      block_rows));
        }
      }
    }
  }
  // Guards the fixture: every tile remainder, run lengths 1-5 and a
  // partition boundary inside a run all occurred.
  for (size_t r : {1u, 2u, 3u}) EXPECT_TRUE(remainders.count(r)) << r;
  for (size_t len = 1; len <= 5; ++len) {
    EXPECT_TRUE(run_lengths.count(len)) << len;
  }
  EXPECT_TRUE(cut_run);
}

TEST(TiledPairScanTest, NullFreeClassificationFollowsTheAppendedGeneration) {
  // Generation 0: x and y hold no NULL, so a scan copies the (x, y) pair's
  // count and x/y sums from the column sketches. The append puts a NULL
  // into y, so a cold scan of generation 1 over a selection holding the
  // NULL row must take the per-pair loop and equal AddRow over its rows.
  const size_t n = 2000;
  const size_t tail = 200;
  const size_t null_row = n + 5;
  Rng rng(77);
  std::vector<double> x(n + tail);
  std::vector<double> y(n + tail);
  std::vector<std::string> g(n + tail);
  for (size_t i = 0; i < n + tail; ++i) {
    const double f = rng.Normal();
    x[i] = f + 0.3 * rng.Normal();
    y[i] = f + 0.3 * rng.Normal();
    g[i] = rng.Bernoulli(0.03) ? "" : (f > 0 ? "hi" : "lo");
  }
  y[null_row] = NullNumeric();
  const auto rows_of = [&](size_t begin, size_t end) {
    const auto cut = [&](const auto& v) {
      return std::vector(v.begin() + static_cast<std::ptrdiff_t>(begin),
                         v.begin() + static_cast<std::ptrdiff_t>(end));
    };
    return Table::FromColumns({Column::FromNumeric("x", cut(x)),
                               Column::FromNumeric("y", cut(y)),
                               Column::FromStrings("g", cut(g))})
        .ValueOrDie();
  };
  const Fixture gen0{rows_of(0, n), TableProfile::Compute(rows_of(0, n))
                                        .ValueOrDie()};
  ASSERT_EQ(gen0.profile.tracked_numeric_pairs().size(), 1u);
  ASSERT_EQ(static_cast<size_t>(gen0.profile.ColumnSketch(1).count), n);
  Fixture gen1{gen0.table.WithAppendedRows(rows_of(n, n + tail)).ValueOrDie(),
               gen0.profile};
  ASSERT_TRUE(gen1.profile.ApplyAppend(gen1.table, n).ok());
  ASSERT_EQ(static_cast<size_t>(gen1.profile.ColumnSketch(1).count),
            n + tail - 1);

  const Selection base = MakeSelection(n, 0.4, 5);
  ExpectBitIdentical(gen0, ReferenceSketches(gen0, base),
                     SelectionSketches::Build(gen0.table, gen0.profile, base));

  Selection to(n + tail);
  base.ForEachSetBit([&](size_t r) { to.Set(r); });
  for (size_t r = n; r < n + tail; ++r) {
    if (r == null_row || r % 3 == 0) to.Set(r);
  }
  ExpectBitIdentical(gen1, ReferenceSketches(gen1, to),
                     SelectionSketches::Build(gen1.table, gen1.profile, to));
}

// ------------------------------------------------- signed block patch ---

// The row-at-a-time reference patch: `base` with AddRow for each row only
// `to` selects and RemoveRow for each row only `from` selects, ascending.
SelectionSketches ReferencePatch(const Fixture& fx, SelectionSketches base,
                                 const Selection& from, const Selection& to) {
  for (size_t r = 0; r < fx.table.num_rows(); ++r) {
    if (from.Contains(r) == to.Contains(r)) continue;
    if (to.Contains(r)) {
      base.AddRow(fx.table, fx.profile, r);
    } else {
      base.RemoveRow(fx.table, fx.profile, r);
    }
  }
  return base;
}

// Patches a scan of `from` to `to` and back with ApplyDelta, and checks
// each step bitwise against the row-at-a-time reference patch of the same
// base.
void ExpectPatchMatchesRowByRow(const Fixture& fx, const Selection& from,
                                const Selection& to) {
  const SelectionSketches base =
      SelectionSketches::Build(fx.table, fx.profile, from);
  SelectionSketches patched = base;
  patched.ApplyDelta(fx.table, fx.profile, from, to);
  const SelectionSketches forward = ReferencePatch(fx, base, from, to);
  {
    SCOPED_TRACE("forward");
    ExpectBitIdentical(fx, forward, patched);
  }
  patched.ApplyDelta(fx.table, fx.profile, to, from);
  SCOPED_TRACE("back");
  ExpectBitIdentical(fx, ReferencePatch(fx, forward, to, from), patched);
}

// `sel` with every row r where r % stride == phase flipped (set_only:
// set, never cleared).
Selection Flipped(const Selection& sel, size_t stride, size_t phase,
                  bool set_only = false) {
  Selection out = sel;
  for (size_t r = phase; r < sel.num_rows(); r += stride) {
    out.Set(r, set_only || !out.Contains(r));
  }
  return out;
}

TEST(SignedPatchTest, DemoTablesMatchRowByRowAcrossBlocks) {
  // The demo tables' planted selections, patched by mixed, pure-add,
  // pure-remove and empty deltas. oecd's 6823 rows span two 4096-row
  // blocks, and its deltas hold rows of both.
  for (const auto& [name, make] :
       std::vector<std::pair<std::string, Result<SyntheticDataset> (*)()>>{
           {"crime", +[] { return MakeCrimeDataset(); }},
           {"oecd", +[] { return MakeOecdDataset(); }},
           {"box", +[] { return MakeBoxOfficeDataset(); }}}) {
    SyntheticDataset ds = make().ValueOrDie();
    TableProfile profile = TableProfile::Compute(ds.table).ValueOrDie();
    const Fixture fx{std::move(ds.table), std::move(profile)};
    const Selection& planted = ds.planted;
    const Selection mixed = Flipped(planted, 17, 3);
    const Selection grown = Flipped(planted, 23, 5, /*set_only=*/true);
    const size_t n = fx.table.num_rows();
    if (name == "oecd") {
      ASSERT_GT(n, SelectionSketches::kDefaultBlockRows);
      bool low = false;
      bool high = false;
      for (size_t r = 0; r < n; ++r) {
        if (planted.Contains(r) == mixed.Contains(r)) continue;
        (r < SelectionSketches::kDefaultBlockRows ? low : high) = true;
      }
      ASSERT_TRUE(low && high);
    }
    ASSERT_NE(grown, planted);
    SCOPED_TRACE(name);
    {
      SCOPED_TRACE("mixed");
      ExpectPatchMatchesRowByRow(fx, planted, mixed);
    }
    {
      SCOPED_TRACE("pure add, then pure remove");
      ExpectPatchMatchesRowByRow(fx, planted, grown);
    }
    {
      SCOPED_TRACE("pure remove, then pure add");
      ExpectPatchMatchesRowByRow(fx, grown, planted);
    }
    {
      SCOPED_TRACE("empty");
      ExpectPatchMatchesRowByRow(fx, planted, planted);
    }
  }
}

TEST(SignedPatchTest, NullsTileRemaindersAndMixedRunsMatchRowByRow) {
  // NULL-holding numeric pairs and NULL category codes (MakeFixture), every
  // unary tile remainder (MakeWideFixture at 0-9 numeric columns), and
  // every sum_xy tile remainder and mixed run length (the pair caps).
  std::vector<Fixture> fixtures;
  fixtures.push_back(MakeFixture(2500, 51));
  for (size_t numeric = 0; numeric <= 9; ++numeric) {
    fixtures.push_back(MakeWideFixture(1300, numeric, 100 + numeric));
  }
  for (size_t cap = 1; cap <= kMaxPairCap; ++cap) {
    fixtures.push_back(MakePairCapFixture(cap));
  }
  for (size_t f = 0; f < fixtures.size(); ++f) {
    const Fixture& fx = fixtures[f];
    const size_t n = fx.table.num_rows();
    for (double density : {0.05, 0.5}) {
      SCOPED_TRACE("fixture " + std::to_string(f) +
                   " density=" + std::to_string(density));
      const Selection from = MakeSelection(n, density, 61);
      ExpectPatchMatchesRowByRow(fx, from, Flipped(from, 7, 2));
      ExpectPatchMatchesRowByRow(fx, from, Flipped(from, 11, 0, true));
    }
  }
}

// ------------------------------------------------- result footprint ---

// MemoryUsageBytes recomputed from the public statistics (per column a
// moment sketch and a rank sum), plus the per-column shape arrays (binners
// and gather slots) and the three offset tables of the flat layout:
// everything a sketch owns on the heap.
size_t ExpectedFootprint(const Fixture& fx) {
  const size_t m = fx.table.num_columns();
  const size_t num_mixed = fx.profile.tracked_mixed_pairs().size();
  const size_t num_tables = fx.profile.tracked_categorical_pairs().size();
  size_t bytes = m * (sizeof(MomentSketch) + sizeof(int64_t) +
                      sizeof(HistogramBinner) + sizeof(uint32_t)) +
                 (m + 1 + num_mixed + 1 + num_tables + 1) * sizeof(size_t);
  for (size_t c = 0; c < m; ++c) {
    const Column& col = fx.table.column(c);
    if (col.is_categorical()) bytes += col.cardinality() * sizeof(int64_t);
    bytes += fx.profile.HistogramCountsOf(c).size() * sizeof(int64_t);
  }
  bytes += fx.profile.tracked_numeric_pairs().size() * sizeof(PairMomentSketch);
  for (size_t i = 0; i < num_mixed; ++i) {
    bytes += fx.profile.MixedPairGroups(i).groups.size() * sizeof(MomentSketch);
  }
  for (size_t i = 0; i < num_tables; ++i) {
    bytes += fx.profile.CategoricalPairTable(i).size() * sizeof(int64_t);
  }
  return bytes;
}

TEST(SketchFootprintTest, ScanResultHoldsOnlyStatistics) {
  const Fixture fx = MakeWideFixture(5000, 9, 701);
  const Selection sel = MakeSelection(fx.table.num_rows(), 0.5, 41);
  SelectionSketches shaped;
  shaped.InitShapes(fx.table, fx.profile);
  const size_t expected = ExpectedFootprint(fx);
  EXPECT_EQ(shaped.MemoryUsageBytes(), expected);
  for (size_t threads : {1u, 4u}) {
    const SelectionSketches built =
        SelectionSketches::Build(fx.table, fx.profile, sel, threads);
    EXPECT_EQ(built.MemoryUsageBytes(), expected) << threads;
    const SelectionSketches copy = built;  // what a near-miss patch copies
    EXPECT_EQ(copy.MemoryUsageBytes(), expected) << threads;
  }
}

}  // namespace
}  // namespace ziggy
