// TableProfile::ApplyAppend vs. a fresh Compute over the grown table.
//
// The serving layer's append path leans on a strong claim: everything the
// delta machinery reaches is updated *bit-identically* to recomputing from
// scratch (same summation chains, same doubled midranks, same refreshed
// dependencies for tracked pairs). With the pair-tracking floor
// at 0 every pair is tracked, nothing is frozen, and the claim upgrades to
// full TableProfile::Equals — which these tests assert.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/table.h"
#include "storage/types.h"
#include "zig/profile.h"

namespace ziggy {
namespace {

// No NULLs: a mixed pair whose observation count crosses 2 mid-append
// would be tracked by a fresh Compute but is frozen by ApplyAppend (the
// one documented divergence class this fixture avoids).
Table MakeTable(size_t rows, uint64_t seed, double lo = -5.0, double hi = 5.0) {
  Rng rng(seed);
  std::vector<double> a(rows);
  std::vector<double> b(rows);
  std::vector<double> c(rows);
  std::vector<std::string> g(rows);
  std::vector<std::string> h(rows);
  const char* glabels[] = {"g0", "g1", "g2"};
  const char* hlabels[] = {"h0", "h1"};
  for (size_t i = 0; i < rows; ++i) {
    a[i] = rng.Uniform(lo, hi);
    b[i] = 0.7 * a[i] + rng.Uniform(-1.0, 1.0);
    c[i] = rng.Normal(0.0, 1.0);
    g[i] = glabels[rng.UniformInt(0, 2)];
    h[i] = hlabels[rng.UniformInt(0, 1)];
  }
  auto table = Table::FromColumns({
      Column::FromNumeric("a", std::move(a)),
      Column::FromNumeric("b", std::move(b)),
      Column::FromNumeric("c", std::move(c)),
      Column::FromStrings("g", g),
      Column::FromStrings("h", h),
  });
  EXPECT_TRUE(table.ok());
  return std::move(table).ValueOrDie();
}

ProfileOptions TrackEverything() {
  ProfileOptions options;
  options.pair_dependency_floor = 0.0;  // nothing frozen: full equality holds
  options.histogram_bins = 8;
  return options;
}

TEST(ProfileAppendTest, WithinRangeAppendEqualsFreshCompute) {
  const Table base = MakeTable(230, 1);
  // Re-sampled base rows: guaranteed inside every range and category set,
  // so this is the pure incremental path with no re-binning.
  Rng sample_rng(2);
  const Table tail = base.SampleRows(57, &sample_rng);
  auto grown = base.WithAppendedRows(tail);
  ASSERT_TRUE(grown.ok());

  auto incremental = TableProfile::Compute(base, TrackEverything());
  ASSERT_TRUE(incremental.ok());
  auto effects = incremental->ApplyAppend(*grown, base.num_rows());
  ASSERT_TRUE(effects.ok());
  EXPECT_EQ(effects->rows_appended, 57u);
  EXPECT_FALSE(effects->ranges_extended);
  EXPECT_FALSE(effects->categories_added);
  EXPECT_TRUE(effects->rebinned_columns.empty());

  auto fresh = TableProfile::Compute(*grown, TrackEverything());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(incremental->Equals(*fresh))
      << "incremental append diverged from full recompute";
}

TEST(ProfileAppendTest, RangeExtendingAppendRebinsAndStillMatches) {
  const Table base = MakeTable(190, 3);
  const Table tail = MakeTable(40, 4, -9.0, 9.0);  // extends every range
  auto grown = base.WithAppendedRows(tail);
  ASSERT_TRUE(grown.ok());

  auto incremental = TableProfile::Compute(base, TrackEverything());
  ASSERT_TRUE(incremental.ok());
  auto effects = incremental->ApplyAppend(*grown, base.num_rows());
  ASSERT_TRUE(effects.ok());
  EXPECT_TRUE(effects->ranges_extended);
  EXPECT_FALSE(effects->rebinned_columns.empty());

  auto fresh = TableProfile::Compute(*grown, TrackEverything());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(incremental->Equals(*fresh));
}

TEST(ProfileAppendTest, NewCategoryGrowsShapesAndMatches) {
  const Table base = MakeTable(150, 5);
  // Tail introduces an unseen label in column g.
  std::vector<double> a = {0.5, -0.5};
  std::vector<double> b = {0.1, 0.2};
  std::vector<double> c = {1.0, -1.0};
  auto tail = Table::FromColumns({
      Column::FromNumeric("a", std::move(a)),
      Column::FromNumeric("b", std::move(b)),
      Column::FromNumeric("c", std::move(c)),
      Column::FromStrings("g", {"g_new", "g0"}),
      Column::FromStrings("h", {"h1", "h0"}),
  });
  ASSERT_TRUE(tail.ok());
  auto grown = base.WithAppendedRows(*tail);
  ASSERT_TRUE(grown.ok());

  auto incremental = TableProfile::Compute(base, TrackEverything());
  ASSERT_TRUE(incremental.ok());
  auto effects = incremental->ApplyAppend(*grown, base.num_rows());
  ASSERT_TRUE(effects.ok());
  EXPECT_TRUE(effects->categories_added);

  auto fresh = TableProfile::Compute(*grown, TrackEverything());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(incremental->Equals(*fresh));
}

TEST(ProfileAppendTest, ChainedAppendsStayExact) {
  const Table base = MakeTable(128, 6);  // exactly two bitmap words
  auto profile = TableProfile::Compute(base, TrackEverything());
  ASSERT_TRUE(profile.ok());

  Table current = base;
  for (uint64_t step = 0; step < 4; ++step) {
    // 1-row and 63/64/65-row tails cross every word-boundary case.
    const size_t tail_rows = step == 0 ? 1 : 62 + step;
    const Table tail = MakeTable(tail_rows, 10 + step, -4.5, 4.5);
    auto grown = current.WithAppendedRows(tail);
    ASSERT_TRUE(grown.ok());
    auto effects = profile->ApplyAppend(*grown, current.num_rows());
    ASSERT_TRUE(effects.ok());
    current = std::move(*grown);
  }
  auto fresh = TableProfile::Compute(current, TrackEverything());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(profile->Equals(*fresh));
}

// A batch with the fixture's schema from explicit numeric cells; the
// categorical cells cycle through existing labels.
Table MakeBatch(std::vector<double> a, std::vector<double> b,
                std::vector<double> c) {
  std::vector<std::string> g(a.size());
  std::vector<std::string> h(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    g[i] = "g" + std::to_string(i % 3);
    h[i] = "h" + std::to_string(i % 2);
  }
  auto table = Table::FromColumns({
      Column::FromNumeric("a", std::move(a)),
      Column::FromNumeric("b", std::move(b)),
      Column::FromNumeric("c", std::move(c)),
      Column::FromStrings("g", g),
      Column::FromStrings("h", h),
  });
  EXPECT_TRUE(table.ok());
  return std::move(table).ValueOrDie();
}

TEST(ProfileAppendTest, MultiBatchRanksMatchFreshCompute) {
  // Batches that tie existing values, tie each other, push new minima and
  // maxima, and carry NULLs: the shifted midranks must equal a fresh
  // Compute's, rank arrays included in Equals.
  Table current = MakeTable(200, 31);
  {
    // NULL a slice of the base so old NULL rows must keep rank 0.
    std::vector<double> a = current.column(0).numeric_data();
    std::vector<double> c = current.column(2).numeric_data();
    for (size_t i = 0; i < a.size(); i += 7) a[i] = NullNumeric();
    for (size_t i = 3; i < c.size(); i += 11) c[i] = NullNumeric();
    std::vector<std::string> g;
    std::vector<std::string> h;
    for (size_t i = 0; i < current.num_rows(); ++i) {
      g.push_back(current.column(3).dictionary()[current.column(3).codes()[i]]);
      h.push_back(current.column(4).dictionary()[current.column(4).codes()[i]]);
    }
    std::vector<Column> columns;
    columns.push_back(Column::FromNumeric("a", std::move(a)));
    columns.push_back(current.column(1));
    columns.push_back(Column::FromNumeric("c", std::move(c)));
    columns.push_back(Column::FromStrings("g", g));
    columns.push_back(Column::FromStrings("h", h));
    current = Table::FromColumns(std::move(columns)).ValueOrDie();
  }
  auto profile = TableProfile::Compute(current, TrackEverything());
  ASSERT_TRUE(profile.ok());

  const auto& a0 = current.column(0).numeric_data();
  const auto& b0 = current.column(1).numeric_data();
  const auto& c0 = current.column(2).numeric_data();
  const double kNull = NullNumeric();
  const std::vector<Table> batches = {
      // Exact copies of existing values (ties with old rows), plus NULLs.
      MakeBatch({a0[1], a0[1], kNull, a0[5]}, {b0[2], b0[9], b0[9], kNull},
                {c0[4], kNull, c0[4], c0[8]}),
      // New minima and maxima, one tied inside the batch.
      MakeBatch({-50.0, 50.0, 50.0, a0[2]}, {-40.0, b0[1], 40.0, 40.0},
                {kNull, -30.0, 30.0, -30.0}),
      // Values tying the previous batch's extremes, and an all-NULL row.
      MakeBatch({50.0, kNull, -50.0}, {kNull, -40.0, 40.0},
                {30.0, kNull, kNull}),
  };
  for (const Table& batch : batches) {
    auto grown = current.WithAppendedRows(batch);
    ASSERT_TRUE(grown.ok()) << grown.status();
    ASSERT_TRUE(profile->ApplyAppend(*grown, current.num_rows()).ok());
    current = std::move(*grown);
    auto fresh = TableProfile::Compute(current, TrackEverything());
    ASSERT_TRUE(fresh.ok());
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(profile->Rank2(c), fresh->Rank2(c)) << "column " << c;
    }
    EXPECT_TRUE(profile->Equals(*fresh));
  }
}

TEST(ProfileAppendTest, RejectsMalformedAppends) {
  const Table base = MakeTable(64, 7);
  auto profile = TableProfile::Compute(base, TrackEverything());
  ASSERT_TRUE(profile.ok());
  // Fewer rows than the profile covers.
  EXPECT_FALSE(profile->ApplyAppend(base, 65).ok());
  // Column-count mismatch.
  auto narrow = Table::FromColumns({Column::FromNumeric("a", {1.0})});
  ASSERT_TRUE(narrow.ok());
  EXPECT_FALSE(profile->ApplyAppend(*narrow, 0).ok());
}

}  // namespace
}  // namespace ziggy
