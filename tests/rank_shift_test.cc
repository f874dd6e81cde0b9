// Differential oracle for the rank-shift component's Mann-Whitney U.
//
// The builder computes U from the profile's cached doubled midranks,
// summed over the smaller side of the selection only. These tests pin it
// to two independent references on adversarial columns:
//   * a naive O(n_in * n_out) pairwise count, and
//   * the previous kernel, a walk over the whole per-column sort order,
//     kept here verbatim as a reference.
// u, n_in and n_out must match exactly (U is a half-integer, and every
// path computes it in exact arithmetic). Selections of 1, N/2 - 1, N/2,
// N/2 + 1 and N - 1 rows exercise both sides of the smaller-side switch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "data/synthetic.h"
#include "storage/types.h"
#include "zig/component_builder.h"
#include "zig/profile.h"

namespace ziggy {

// Replaces a profile's cached rank arrays, so a profile whose ranks come
// from the reference below can be serialized and compared byte for byte.
class TableProfileTestPeer {
 public:
  static void SetRank2(TableProfile* profile, size_t col,
                       std::vector<uint32_t> rank2) {
    profile->rank2_[col] = std::move(rank2);
  }
};

namespace {

// Pairwise reference: 2U = 2 * #(in > out) + #(in == out), over non-NULL
// values only.
MannWhitneyCounts NaiveU(const std::vector<double>& data,
                         const Selection& selection) {
  std::vector<double> in;
  std::vector<double> out;
  for (size_t r = 0; r < data.size(); ++r) {
    if (IsNullNumeric(data[r])) continue;
    (selection.Contains(r) ? in : out).push_back(data[r]);
  }
  int64_t u2 = 0;
  for (double a : in) {
    for (double b : out) u2 += a > b ? 2 : (a == b ? 1 : 0);
  }
  MannWhitneyCounts c;
  c.u = 0.5 * static_cast<double>(u2);
  c.n_in = static_cast<int64_t>(in.size());
  c.n_out = static_cast<int64_t>(out.size());
  return c;
}

// The previous kernel: one walk over the ascending sort order (row-id
// tiebreak), crediting each tie group's inside rows with the outside rows
// before it plus half the outside rows tied with them.
MannWhitneyCounts SortOrderWalkU(const std::vector<double>& data,
                                 const Selection& selection) {
  std::vector<uint32_t> order;
  for (size_t r = 0; r < data.size(); ++r) {
    if (!IsNullNumeric(data[r])) order.push_back(static_cast<uint32_t>(r));
  }
  std::sort(order.begin(), order.end(), [&data](uint32_t a, uint32_t b) {
    return data[a] < data[b] || (data[a] == data[b] && a < b);
  });
  MannWhitneyCounts c;
  int64_t outside_before = 0;
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i;
    while (j + 1 < order.size() && data[order[j + 1]] == data[order[i]]) ++j;
    int64_t g_in = 0;
    int64_t g_out = 0;
    for (size_t k = i; k <= j; ++k) {
      if (selection.Contains(order[k])) {
        ++g_in;
      } else {
        ++g_out;
      }
    }
    c.u += static_cast<double>(g_in) * static_cast<double>(outside_before) +
           0.5 * static_cast<double>(g_in) * static_cast<double>(g_out);
    outside_before += g_out;
    c.n_in += g_in;
    c.n_out += g_out;
    i = j + 1;
  }
  return c;
}

// Adversarial numeric columns, all `n` rows long.
Table MakeAdversarialTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> constant(n, 7.25);
  std::vector<double> null_heavy(n);
  std::vector<double> single(n, NullNumeric());
  std::vector<double> offset(n);
  std::vector<double> quantized(n);
  std::vector<double> signed_zero(n);
  std::vector<double> normal(n);
  single[n / 3] = 4.0;
  for (size_t i = 0; i < n; ++i) {
    null_heavy[i] = rng.Bernoulli(0.85) ? NullNumeric() : rng.Normal();
    offset[i] = 1e9 + rng.Uniform(0.0, 1.0);
    quantized[i] = std::round(rng.Normal(0.0, 1.5));
    signed_zero[i] = rng.Bernoulli(0.5)
                         ? (rng.Bernoulli(0.5) ? 0.0 : -0.0)
                         : static_cast<double>(rng.UniformInt(-2, 2));
    normal[i] = rng.Bernoulli(0.1) ? NullNumeric() : rng.Normal();
  }
  std::vector<Column> columns;
  columns.push_back(Column::FromNumeric("constant", std::move(constant)));
  columns.push_back(Column::FromNumeric("null_heavy", std::move(null_heavy)));
  columns.push_back(Column::FromNumeric("single", std::move(single)));
  columns.push_back(Column::FromNumeric("offset", std::move(offset)));
  columns.push_back(Column::FromNumeric("quantized", std::move(quantized)));
  columns.push_back(
      Column::FromNumeric("signed_zero", std::move(signed_zero)));
  columns.push_back(Column::FromNumeric("normal", std::move(normal)));
  return Table::FromColumns(std::move(columns)).ValueOrDie();
}

// Selections of the given sizes, rows drawn at random.
std::vector<Selection> MakeSelections(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Selection> out;
  for (size_t count :
       {size_t{1}, n / 2 - 1, n / 2, n / 2 + 1, n - 1, n / 5, 4 * n / 5}) {
    std::vector<size_t> rows(n);
    for (size_t i = 0; i < n; ++i) rows[i] = i;
    rng.Shuffle(&rows);
    rows.resize(count);
    out.push_back(Selection::FromIndices(n, rows));
  }
  // A prefix and a suffix: contiguous runs, tail word included.
  std::vector<size_t> prefix(n / 3);
  for (size_t i = 0; i < prefix.size(); ++i) prefix[i] = i;
  out.push_back(Selection::FromIndices(n, prefix));
  out.push_back(Selection::FromIndices(n, prefix).Invert());
  return out;
}

void ExpectSameCounts(const MannWhitneyCounts& got,
                      const MannWhitneyCounts& want, const std::string& where) {
  EXPECT_EQ(got.u, want.u) << where;
  EXPECT_EQ(got.n_in, want.n_in) << where;
  EXPECT_EQ(got.n_out, want.n_out) << where;
}

class RankShiftOracleTest : public testing::TestWithParam<size_t> {};

TEST_P(RankShiftOracleTest, MidrankSumMatchesPairwiseAndSortOrderWalk) {
  const size_t n = GetParam();
  const Table table = MakeAdversarialTable(n, 1000 + n);
  const TableProfile profile = TableProfile::Compute(table).ValueOrDie();
  bool saw_inside = false;
  bool saw_complement = false;
  for (const Selection& sel : MakeSelections(n, 2000 + n)) {
    const RankSumSide side = RankSumSide::Of(sel);
    EXPECT_EQ(side.rows.size(), std::min(sel.Count(), n - sel.Count()));
    (side.is_inside ? saw_inside : saw_complement) = true;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const auto& data = table.column(c).numeric_data();
      const std::string where = "n=" + std::to_string(n) + " col=" +
                                table.column(c).name() +
                                " |S|=" + std::to_string(sel.Count());
      const MannWhitneyCounts got = MannWhitneyFromRanks(
          profile.Rank2(c), profile.ColumnSketch(c).count, side);
      ExpectSameCounts(got, NaiveU(data, sel), where + " vs pairwise");
      ExpectSameCounts(got, SortOrderWalkU(data, sel),
                       where + " vs sort-order walk");
    }
  }
  EXPECT_TRUE(saw_inside);
  EXPECT_TRUE(saw_complement);
}

// Odd and even row counts; 64, 128 and 129 put the smaller side on word
// boundaries and in a one-row tail word.
INSTANTIATE_TEST_SUITE_P(RowCounts, RankShiftOracleTest,
                         testing::Values(size_t{7}, size_t{64}, size_t{128},
                                         size_t{129}, size_t{301}));

TEST(RankShiftComponentTest, BuiltComponentCarriesOracleCounts) {
  const size_t n = 257;
  const Table table = MakeAdversarialTable(n, 11);
  const TableProfile profile = TableProfile::Compute(table).ValueOrDie();
  ComponentBuildOptions options;
  options.enable_distribution_shift = false;
  for (const Selection& sel : MakeSelections(n, 12)) {
    auto built = BuildComponents(table, profile, sel, options);
    ASSERT_TRUE(built.ok()) << built.status();
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const MannWhitneyCounts want =
          NaiveU(table.column(c).numeric_data(), sel);
      const ZigComponent* rank = built->Find(ComponentKind::kRankShift, c);
      if (want.n_in < options.min_side_rows ||
          want.n_out < options.min_side_rows) {
        EXPECT_EQ(rank, nullptr) << table.column(c).name();
        continue;
      }
      ASSERT_NE(rank, nullptr) << table.column(c).name();
      EXPECT_EQ(rank->inside_n, want.n_in);
      EXPECT_EQ(rank->outside_n, want.n_out);
      EXPECT_EQ(rank->inside_value,
                want.u / (static_cast<double>(want.n_in) *
                          static_cast<double>(want.n_out)));
    }
  }
}

TEST(RankShiftComponentTest, AppendedProfileKeepsOracleCounts) {
  // Ranks shifted by ApplyAppend feed the same U as a fresh profile's.
  const Table base = MakeAdversarialTable(150, 21);
  const Table tail = MakeAdversarialTable(40, 22);
  const Table grown = base.WithAppendedRows(tail).ValueOrDie();
  TableProfile profile = TableProfile::Compute(base).ValueOrDie();
  ASSERT_TRUE(profile.ApplyAppend(grown, base.num_rows()).ok());
  for (const Selection& sel : MakeSelections(grown.num_rows(), 23)) {
    const RankSumSide side = RankSumSide::Of(sel);
    for (size_t c = 0; c < grown.num_columns(); ++c) {
      const MannWhitneyCounts got = MannWhitneyFromRanks(
          profile.Rank2(c), profile.ColumnSketch(c).count, side);
      ExpectSameCounts(got, NaiveU(grown.column(c).numeric_data(), sel),
                       grown.column(c).name());
    }
  }
}

// The midrank kernel the radix sort replaced: std::sort of (value, row)
// pairs, then one doubled midrank per run of equal values.
std::vector<uint32_t> ReferenceMidranks(const std::vector<double>& data) {
  std::vector<std::pair<double, uint32_t>> sorted;
  for (size_t r = 0; r < data.size(); ++r) {
    if (!IsNullNumeric(data[r])) {
      sorted.emplace_back(data[r], static_cast<uint32_t>(r));
    }
  }
  std::sort(sorted.begin(), sorted.end());
  std::vector<uint32_t> rank2(data.size(), 0);
  for (size_t i = 0; i < sorted.size();) {
    size_t j = i + 1;
    while (j < sorted.size() && sorted[j].first == sorted[i].first) ++j;
    for (size_t k = i; k < j; ++k) {
      rank2[sorted[k].second] = static_cast<uint32_t>(i + j + 1);
    }
    i = j;
  }
  return rank2;
}

TEST(DoubledMidranksTest, RadixSortMatchesSortReference) {
  const double inf = std::numeric_limits<double>::infinity();
  const double sub = std::numeric_limits<double>::denorm_min();
  Rng rng(31);
  std::vector<std::pair<std::string, std::vector<double>>> columns = {
      {"empty", {}},
      {"single row", {3.5}},
      {"single NULL", {NullNumeric()}},
      {"all NULL", std::vector<double>(50, NullNumeric())},
      {"constant", std::vector<double>(50, -2.0)},
      {"signed zeros", {0.0, -0.0, 1.0, -0.0, -1.0, 0.0, -0.0}},
      {"infinities", {inf, -inf, 0.0, inf, -1e300, -inf, 1e300, NullNumeric()}},
      {"subnormals", {sub, -sub, 2 * sub, DBL_MIN, -DBL_MIN, 0.0, -0.0, sub,
                      -2 * sub, DBL_MIN / 2}},
      {"extremes", {DBL_MAX, -DBL_MAX, DBL_MAX, 0.0, -DBL_MAX, inf, -inf}},
  };
  std::vector<double> ties(3000);
  std::vector<double> null_heavy(3000);
  std::vector<double> mixed(3000);
  std::vector<double> wide(3000);
  for (size_t i = 0; i < ties.size(); ++i) {
    ties[i] = static_cast<double>(rng.UniformInt(-3, 3));
    null_heavy[i] = rng.Bernoulli(0.85) ? NullNumeric() : rng.Normal();
    const double pick[] = {0.0, -0.0, inf, -inf, sub, -sub, DBL_MAX, -DBL_MAX,
                           NullNumeric(), rng.Normal(), 1.0, -1.0};
    mixed[i] = pick[rng.UniformInt(0, 11)];
    wide[i] = rng.Normal() * std::ldexp(1.0, static_cast<int>(
                                                 rng.UniformInt(-1000, 1000)));
  }
  columns.emplace_back("ties", std::move(ties));
  columns.emplace_back("85% NULL", std::move(null_heavy));
  columns.emplace_back("mixed specials", std::move(mixed));
  columns.emplace_back("wide exponents", std::move(wide));
  for (const auto& [name, data] : columns) {
    EXPECT_EQ(internal::DoubledMidranks(data), ReferenceMidranks(data))
        << name;
  }
}

TEST(DoubledMidranksTest, DemoProfilesMatchReferenceBytes) {
  for (const auto& dataset :
       {MakeBoxOfficeDataset(), MakeCrimeDataset(), MakeOecdDataset()}) {
    const Table& table = dataset.ValueOrDie().table;
    const TableProfile profile = TableProfile::Compute(table).ValueOrDie();
    TableProfile reference = profile;
    size_t numeric = 0;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (!table.column(c).is_numeric()) continue;
      ++numeric;
      TableProfileTestPeer::SetRank2(
          &reference, c, ReferenceMidranks(table.column(c).numeric_data()));
    }
    ASSERT_GT(numeric, 0u);
    std::ostringstream got;
    std::ostringstream want;
    ASSERT_TRUE(profile.Serialize(&got).ok());
    ASSERT_TRUE(reference.Serialize(&want).ok());
    EXPECT_TRUE(got.str() == want.str())
        << table.num_rows() << "x" << table.num_columns();
  }
}

}  // namespace
}  // namespace ziggy
