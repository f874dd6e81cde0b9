// Differential oracle for the rank-shift component's Mann-Whitney U.
//
// The builder computes U from the inside sketch's rank sum: the profile's
// cached doubled midranks, summed by every path that accumulates a
// SelectionSketches (the columnar scan at any thread count, the XOR-delta
// patch, AddRow) and carried through the server's sketch cache. These
// tests pin it to two independent references on adversarial columns:
//   * a naive O(n_in * n_out) pairwise count, and
//   * an older kernel, a walk over the whole per-column sort order, kept
//     here verbatim as a reference.
// u, n_in and n_out must match exactly (U is a half-integer, and every
// path computes it in exact arithmetic). Selections run from 1 to N - 1
// rows, including prefixes and suffixes that end inside a word.

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
#include "serve/ziggy_server.h"
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

// U of column `c` from a sketch of the inside: its rank sum and non-NULL
// count, the outside's count being the column's minus the inside's.
MannWhitneyCounts SketchU(const SelectionSketches& inside,
                          const TableProfile& profile, size_t c) {
  const int64_t n_in = inside.column_sketch(c).count;
  const int64_t n_out = profile.ColumnSketch(c).count - n_in;
  return MannWhitneyFromRankSum(inside.rank_sum(c), n_in, n_out);
}

// Every accumulation path of `selections[i]` against both oracles: the
// columnar scan at 1, 2 and 4 threads, ApplyDelta from a scan of the
// previous selection, and AddRow over the rows in ascending order. The
// complement derived from the scan holds the rank sums a scan of the
// complement accumulates.
void ExpectSketchSumsMatchOracles(const Table& table,
                                  const TableProfile& profile,
                                  const std::vector<Selection>& selections) {
  for (size_t i = 0; i < selections.size(); ++i) {
    const Selection& sel = selections[i];
    const Selection& prev = selections[i == 0 ? selections.size() - 1 : i - 1];
    std::vector<std::pair<std::string, SelectionSketches>> paths;
    for (size_t threads : {1u, 2u, 4u}) {
      auto built = SelectionSketches::Build(table, profile, sel, threads);
      paths.emplace_back("threads " + std::to_string(threads), built);
    }
    SelectionSketches patched = SelectionSketches::Build(table, profile, prev);
    patched.ApplyDelta(table, profile, prev, sel);
    paths.emplace_back("ApplyDelta", std::move(patched));
    SelectionSketches added;
    added.InitShapes(table, profile);
    sel.ForEachSetBit([&](size_t r) { added.AddRow(table, profile, r); });
    paths.emplace_back("AddRow", std::move(added));

    SelectionSketches derived;
    derived.InitShapes(table, profile);
    derived.DeriveAsComplement(profile, paths.front().second);
    const SelectionSketches scanned_outside =
        SelectionSketches::Build(table, profile, sel.Invert());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const auto& data = table.column(c).numeric_data();
      std::string where = "n=" + std::to_string(table.num_rows());
      where += " col=" + table.column(c).name();
      where += " |S|=" + std::to_string(sel.Count());
      const MannWhitneyCounts pairwise = NaiveU(data, sel);
      const MannWhitneyCounts walk = SortOrderWalkU(data, sel);
      for (const auto& [path, sketch] : paths) {
        const MannWhitneyCounts got = SketchU(sketch, profile, c);
        ExpectSameCounts(got, pairwise, where + " " + path + " vs pairwise");
        ExpectSameCounts(got, walk, where + " " + path + " vs sort-order walk");
      }
      EXPECT_EQ(derived.rank_sum(c), scanned_outside.rank_sum(c)) << where;
    }
  }
}

class RankShiftOracleTest : public testing::TestWithParam<size_t> {};

TEST_P(RankShiftOracleTest, MidrankSumMatchesPairwiseAndSortOrderWalk) {
  const size_t n = GetParam();
  const Table table = MakeAdversarialTable(n, 1000 + n);
  const TableProfile profile = TableProfile::Compute(table).ValueOrDie();
  ExpectSketchSumsMatchOracles(table, profile, MakeSelections(n, 2000 + n));
}

// Odd and even row counts; 64, 128 and 129 put selection edges on word
// boundaries and in a one-row tail word.
INSTANTIATE_TEST_SUITE_P(RowCounts, RankShiftOracleTest,
                         testing::Values(size_t{7}, size_t{64}, size_t{128},
                                         size_t{129}, size_t{301}));

TEST(RankShiftComponentTest, BuiltComponentCarriesOracleCounts) {
  const size_t n = 257;
  const Table table = MakeAdversarialTable(n, 11);
  ProfileOptions profile_options;
  profile_options.histogram_bins = 0;  // rank-shift components only
  const TableProfile profile =
      TableProfile::Compute(table, profile_options).ValueOrDie();
  const ComponentBuildOptions options;
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
  // Ranks shifted by ApplyAppend feed every sketch path the same U as the
  // oracles over the grown table.
  const Table base = MakeAdversarialTable(150, 21);
  const Table tail = MakeAdversarialTable(40, 22);
  const Table grown = base.WithAppendedRows(tail).ValueOrDie();
  TableProfile profile = TableProfile::Compute(base).ValueOrDie();
  ASSERT_TRUE(profile.ApplyAppend(grown, base.num_rows()).ok());
  ExpectSketchSumsMatchOracles(grown, profile,
                               MakeSelections(grown.num_rows(), 23));
}

// The adversarial columns plus `id` = row id, so "id < k" selects rows
// [0, k) of any generation.
Table WithIdColumn(const Table& table, size_t first_id) {
  std::vector<Column> columns;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    columns.push_back(table.column(c));
  }
  std::vector<double> id(table.num_rows());
  for (size_t r = 0; r < id.size(); ++r) {
    id[r] = static_cast<double>(first_id + r);
  }
  columns.push_back(Column::FromNumeric("id", std::move(id)));
  return Table::FromColumns(std::move(columns)).ValueOrDie();
}

TEST(RankShiftServerTest, CachedSketchesHoldOracleRankSumsAcrossAppend) {
  // A session's refinement chain through the server with its sketch cache
  // on: cold, patched and exact reads, an append (which moves the
  // midranks of old rows), then the same three kinds of read on the new
  // generation. After every read, the sketches the cache holds for its
  // selection carry the oracle's rank sum and count in every column. The
  // appended rows repeat base rows with ids 300-339, inside every column's
  // range, so no re-binned histogram is what keeps an old sketch out.
  const size_t n = 400;
  ServeOptions options;
  options.session.novelty = SessionOptions::NoveltyPolicy::kOff;
  const Table base = MakeAdversarialTable(n, 41);
  std::unique_ptr<ZiggyServer> server =
      ZiggyServer::Create(WithIdColumn(base, 0), options).ValueOrDie();
  const uint64_t session = server->OpenSession();
  const auto read = [&](size_t k, SketchSource source) {
    const std::string query = "id < " + std::to_string(k);
    SCOPED_TRACE(query);
    const Characterization result =
        server->Characterize(session, query).ValueOrDie();
    EXPECT_EQ(result.sketch_source, source);
    const auto state = server->state();
    SCOPED_TRACE("generation " + std::to_string(state->generation()));
    const Table& table = state->table();
    Selection sel(table.num_rows());
    for (size_t r = 0; r < k; ++r) sel.Set(r);
    const auto cached = server->FindCachedSketches(sel);
    ASSERT_NE(cached, nullptr);
    for (size_t c = 0; c < table.num_columns(); ++c) {
      SCOPED_TRACE(table.column(c).name());
      const auto& data = table.column(c).numeric_data();
      const MannWhitneyCounts want = NaiveU(data, sel);
      const auto u2 = static_cast<int64_t>(2.0 * want.u);
      EXPECT_EQ(cached->rank_sum(c), u2 + want.n_in * (want.n_in + 1));
      EXPECT_EQ(cached->column_sketch(c).count, want.n_in);
    }
  };
  read(160, SketchSource::kServerScan);
  read(200, SketchSource::kCachePatched);
  read(200, SketchSource::kCacheExact);

  const uint64_t flushes = server->stats().cache_flushes;
  Rng rng(42);
  const Table rows = WithIdColumn(base.SampleRows(40, &rng), 300);
  ASSERT_TRUE(server->Append(rows).ok());
  EXPECT_EQ(server->stats().cache_flushes, flushes + 1);
  read(200, SketchSource::kServerScan);
  read(230, SketchSource::kCachePatched);
  read(230, SketchSource::kCacheExact);
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
