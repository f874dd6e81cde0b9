// Unit and integration tests for the ZiggyEngine facade.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <set>

#include "common/random.h"
#include "data/synthetic.h"
#include "engine/json.h"
#include "engine/report.h"
#include "engine/ziggy_engine.h"
#include "query/parser.h"
#include "serve/ziggy_server.h"
#include "two_scan_reference.h"
#include "zig/selection_sketches.h"

namespace ziggy {
namespace {

ZiggyEngine MakeEngine(ZiggyOptions opts = {}) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  return ZiggyEngine::Create(std::move(ds.table), opts).ValueOrDie();
}

TEST(EngineTest, CreateRejectsEmptyTable) {
  EXPECT_FALSE(ZiggyEngine::Create(Table()).ok());
}

TEST(EngineTest, CharacterizeQueryEndToEnd) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  const std::string predicate = ds.selection_predicate;
  ZiggyEngine engine = ZiggyEngine::Create(std::move(ds.table)).ValueOrDie();
  Characterization r = engine.CharacterizeQuery(predicate).ValueOrDie();
  EXPECT_GT(r.inside_count, 0);
  EXPECT_GT(r.outside_count, 0);
  EXPECT_FALSE(r.views.empty());
  EXPECT_GT(r.num_candidates, 0u);
  for (const auto& cv : r.views) {
    EXPECT_FALSE(cv.explanation.headline.empty());
    EXPECT_LE(cv.view.aggregated_p_value, engine.options().validation.max_p_value);
  }
}

TEST(EngineTest, AcceptsFullSelectStatement) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  ZiggyEngine engine = ZiggyEngine::Create(std::move(ds.table)).ValueOrDie();
  auto r = engine.CharacterizeQuery("SELECT * FROM movies WHERE revenue_index > 1.0");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r->inside_count, 0);
}

TEST(EngineTest, ParseErrorsSurface) {
  ZiggyEngine engine = MakeEngine();
  EXPECT_TRUE(engine.CharacterizeQuery("revenue_index >").status().IsParseError());
  EXPECT_TRUE(engine.CharacterizeQuery("no_such_col > 1").status().IsNotFound());
}

TEST(EngineTest, EmptySelectionIsFailedPrecondition) {
  ZiggyEngine engine = MakeEngine();
  EXPECT_TRUE(
      engine.CharacterizeQuery("revenue_index > 1e12").status().IsFailedPrecondition());
}

TEST(EngineTest, ProfileOfALongerTableIsRejected) {
  // A profile must describe the table's rows, not only its columns: every
  // numeric column's rank array spans the table, so a 100-row table
  // checked against the profile of a 120-row one fails.
  const auto table_of = [](size_t rows) {
    Rng rng(5);
    std::vector<double> x(rows);
    std::vector<std::string> g(rows);
    for (size_t i = 0; i < rows; ++i) {
      x[i] = rng.Normal();
      g[i] = i % 2 == 0 ? "a" : "b";
    }
    return Table::FromColumns({Column::FromNumeric("x", std::move(x)),
                               Column::FromStrings("g", std::move(g))})
        .ValueOrDie();
  };
  const Table longer = table_of(120);
  auto profile = std::make_shared<const TableProfile>(
      TableProfile::Compute(longer).ValueOrDie());
  auto dendrogram = std::make_shared<const Dendrogram>(
      BuildColumnDendrogram(*profile).ValueOrDie());
  auto shorter = std::make_shared<const Table>(table_of(100));
  Selection sel(100);
  for (size_t r = 0; r < 50; ++r) sel.Set(r);

  const Status validated =
      ValidateCharacterizationInput(*shorter, *profile, sel);
  EXPECT_TRUE(validated.IsInvalidArgument()) << validated;
  const Status created =
      ZiggyEngine::CreateShared(shorter, profile, dendrogram).status();
  EXPECT_TRUE(created.IsInvalidArgument()) << created;
  // The profile's own table passes.
  Selection all_but_one = Selection::All(120);
  all_but_one.Set(0, false);
  EXPECT_TRUE(
      ValidateCharacterizationInput(longer, *profile, all_but_one).ok());
}

TEST(EngineTest, ProfileWithOtherCategoriesIsRejected) {
  // Complement derivation indexes the profile's category counts by the
  // table's codes, so a profile of a table with more (or fewer) labels in
  // a categorical column must be refused, not read past.
  const auto table_of = [](size_t labels) {
    std::vector<double> x(60);
    std::vector<std::string> g(60);
    for (size_t i = 0; i < 60; ++i) {
      x[i] = static_cast<double>(i % 7);
      g[i] = "L" + std::to_string(i % labels);
    }
    return Table::FromColumns({Column::FromNumeric("x", std::move(x)),
                               Column::FromStrings("g", std::move(g))})
        .ValueOrDie();
  };
  const Table three = table_of(3);
  const Table five = table_of(5);
  Selection sel(60);
  for (size_t r = 0; r < 60; r += 3) sel.Set(r);
  for (const auto& [table, other] :
       {std::pair<const Table*, const Table*>{&three, &five},
        std::pair<const Table*, const Table*>{&five, &three}}) {
    const TableProfile profile = TableProfile::Compute(*other).ValueOrDie();
    const Status validated =
        ValidateCharacterizationInput(*table, profile, sel);
    EXPECT_TRUE(validated.IsInvalidArgument()) << validated;
    EXPECT_NE(validated.message().find("categories"), std::string::npos)
        << validated;
    EXPECT_TRUE(BuildComponents(*table, profile, sel).status().IsInvalidArgument());
    const TableProfile own = TableProfile::Compute(*table).ValueOrDie();
    EXPECT_TRUE(ValidateCharacterizationInput(*table, own, sel).ok());
  }
}

TEST(EngineTest, CategoricalProfileOfALongerTableIsRejected) {
  // With no numeric column there is no rank array to compare: the
  // profile's own row count is.
  const auto table_of = [](size_t rows) {
    std::vector<std::string> g(rows);
    for (size_t i = 0; i < rows; ++i) g[i] = i % 2 == 0 ? "a" : "b";
    return Table::FromColumns({Column::FromStrings("g", std::move(g))})
        .ValueOrDie();
  };
  const TableProfile profile = TableProfile::Compute(table_of(120)).ValueOrDie();
  const Table shorter = table_of(100);
  Selection sel(100);
  for (size_t r = 0; r < 50; ++r) sel.Set(r);
  const Status validated = ValidateCharacterizationInput(shorter, profile, sel);
  EXPECT_TRUE(validated.IsInvalidArgument()) << validated;
  EXPECT_NE(validated.message().find("120 rows"), std::string::npos)
      << validated;
  EXPECT_TRUE(
      BuildComponents(shorter, profile, sel).status().IsInvalidArgument());
}

TEST(EngineTest, AllRowsSelectionIsFailedPrecondition) {
  ZiggyEngine engine = MakeEngine();
  EXPECT_TRUE(
      engine.CharacterizeQuery("revenue_index > -1e12").status().IsFailedPrecondition());
}

TEST(EngineTest, SelectionSizeMismatchRejected) {
  ZiggyEngine engine = MakeEngine();
  EXPECT_TRUE(engine.Characterize(Selection(5)).status().IsInvalidArgument());
}

TEST(EngineTest, RankedByDescendingScore) {
  ZiggyEngine engine = MakeEngine();
  Characterization r =
      engine.CharacterizeQuery("revenue_index > 1.2").ValueOrDie();
  for (size_t i = 1; i < r.views.size(); ++i) {
    EXPECT_GE(r.views[i - 1].view.score.total, r.views[i].view.score.total);
  }
}

TEST(EngineTest, TimingsArePopulated) {
  ZiggyEngine engine = MakeEngine();
  Characterization r = engine.CharacterizeQuery("revenue_index > 1.2").ValueOrDie();
  EXPECT_GT(r.timings.preparation_ms, 0.0);
  EXPECT_GE(r.timings.search_ms, 0.0);
  EXPECT_GE(r.timings.post_processing_ms, 0.0);
  EXPECT_NEAR(r.timings.total_ms(),
              r.timings.preparation_ms + r.timings.search_ms +
                  r.timings.post_processing_ms,
              1e-9);
}

// The characterization body without its wall-clock timings, the one field
// a repeat may change.
std::string JsonWithoutTimings(Characterization result, const Schema& schema) {
  result.timings = StageTimings{};
  return CharacterizationToJson(result, schema);
}

// A repeated selection, whether typed the same or differently, is an exact
// sketch-cache hit: its components are rebuilt from the cached sketches,
// and it renders byte for byte as the first answer did.
void ExpectRepeatsAreExactHits(
    const std::function<Characterization(const std::string&)>& characterize,
    const Schema& schema) {
  const Characterization first = characterize("revenue_index > 1.2");
  EXPECT_EQ(first.sketch_source, SketchSource::kServerScan);
  for (const std::string query :
       {"revenue_index > 1.2", "NOT revenue_index <= 1.2"}) {
    const Characterization again = characterize(query);
    EXPECT_EQ(again.sketch_source, SketchSource::kCacheExact) << query;
    EXPECT_EQ(again.delta_rows, 0u) << query;
    EXPECT_EQ(RenderCharacterizationReport(again, schema),
              RenderCharacterizationReport(first, schema))
        << query;
    EXPECT_EQ(JsonWithoutTimings(again, schema),
              JsonWithoutTimings(first, schema))
        << query;
  }
}

TEST(EngineTest, QueryCacheHitsOnRepeatedSelection) {
  ZiggyEngine engine = MakeEngine();
  ExpectRepeatsAreExactHits(
      [&](const std::string& query) {
        return engine.CharacterizeQuery(query).ValueOrDie();
      },
      engine.table().schema());
}

// The same on a server session, whose repeats hit the shared cache; the
// repeats also match a fresh engine's cold answer.
TEST(EngineTest, CachedResultsMatchUncached) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  std::unique_ptr<ZiggyServer> server =
      ZiggyServer::Create(ds.table).ValueOrDie();
  SessionOptions session_options;
  session_options.novelty = SessionOptions::NoveltyPolicy::kOff;
  const uint64_t session = server->OpenSession(session_options);
  const Schema& schema = ds.table.schema();
  ExpectRepeatsAreExactHits(
      [&](const std::string& query) {
        return server->Characterize(session, query).ValueOrDie();
      },
      schema);
  EXPECT_EQ(server->stats().sketch_exact_hits, 2u);

  ZiggyEngine fresh = ZiggyEngine::Create(ds.table).ValueOrDie();
  const Characterization cold =
      fresh.CharacterizeQuery("NOT revenue_index <= 1.2").ValueOrDie();
  ASSERT_EQ(cold.sketch_source, SketchSource::kServerScan);
  const Characterization served =
      server->Characterize(session, "revenue_index > 1.2").ValueOrDie();
  ASSERT_EQ(served.sketch_source, SketchSource::kCacheExact);
  EXPECT_EQ(RenderCharacterizationReport(served, schema),
            RenderCharacterizationReport(cold, schema));
  EXPECT_EQ(JsonWithoutTimings(served, schema),
            JsonWithoutTimings(cold, schema));
}

TEST(EngineTest, OptionsTunableBetweenQueries) {
  ZiggyEngine engine = MakeEngine();
  engine.mutable_options()->search.max_views = 1;
  Characterization r = engine.CharacterizeQuery("revenue_index > 1.2").ValueOrDie();
  EXPECT_LE(r.views.size(), 1u);
  engine.mutable_options()->search.max_views = 10;
  Characterization r2 = engine.CharacterizeQuery("revenue_index > 1.2").ValueOrDie();
  EXPECT_GE(r2.views.size(), r.views.size());
}

TEST(EngineTest, SearchOptionsMovedBetweenQueriesMatchFreshEngine) {
  // The engine keeps its view plan across queries; moving the structural
  // search options must rebuild it. The same selection each time keeps the
  // sketches an exact hit, so only the search stage differs.
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  const std::string query = ds.selection_predicate;
  ZiggyEngine engine = ZiggyEngine::Create(ds.table).ValueOrDie();
  const Schema& schema = engine.table().schema();
  struct Step {
    double min_tightness;
    size_t max_view_size;
  };
  std::set<std::string> distinct;
  for (const Step step : {Step{0.4, 4}, Step{0.7, 4}, Step{0.7, 2},
                          Step{0.1, 2}, Step{0.1, 3}, Step{0.4, 4}}) {
    engine.mutable_options()->search.min_tightness = step.min_tightness;
    engine.mutable_options()->search.max_view_size = step.max_view_size;
    const std::string moved = RenderCharacterizationReport(
        engine.CharacterizeQuery(query).ValueOrDie(), schema);
    ZiggyOptions fresh_options;
    fresh_options.search = engine.options().search;
    ZiggyEngine fresh =
        ZiggyEngine::Create(ds.table, fresh_options).ValueOrDie();
    EXPECT_EQ(moved, RenderCharacterizationReport(
                         fresh.CharacterizeQuery(query).ValueOrDie(), schema))
        << "min_tightness=" << step.min_tightness
        << " max_view_size=" << step.max_view_size;
    distinct.insert(moved);
  }
  EXPECT_GT(distinct.size(), 2u);  // the steps really change the answer
}

TEST(EngineTest, ServerSessionReboundAfterAppendMatchesFreshEngine) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  ServeOptions options;
  options.cache_enabled = false;  // every read scans, as a fresh engine does
  options.engine.search.min_tightness = 0.5;
  std::unique_ptr<ZiggyServer> server =
      ZiggyServer::Create(ds.table, options).ValueOrDie();
  SessionOptions session_options;
  session_options.novelty = SessionOptions::NoveltyPolicy::kOff;
  const uint64_t session = server->OpenSession(session_options);
  auto expect_fresh = [&](const std::string& query) {
    const Characterization served =
        server->Characterize(session, query).ValueOrDie();
    const auto state = server->state();
    ZiggyEngine fresh =
        ZiggyEngine::CreateShared(state->snapshot.shared_table(),
                                  state->profile, state->dendrogram,
                                  options.engine)
            .ValueOrDie();
    const Characterization expected =
        fresh.CharacterizeQuery(query).ValueOrDie();
    const Schema& schema = state->table().schema();
    EXPECT_EQ(RenderCharacterizationReport(served, schema),
              RenderCharacterizationReport(expected, schema))
        << "generation " << state->generation() << ": " << query;
  };
  expect_fresh(ds.selection_predicate);
  Rng rng(5);
  for (int batch = 0; batch < 2; ++batch) {
    ASSERT_TRUE(server->Append(ds.table.SampleRows(60, &rng)).ok());
    expect_fresh(ds.selection_predicate);
    expect_fresh("revenue_index > 1.2");
  }
}

// A copy of `table` with a NULL at (row, col) of numeric column `col`.
Table WithNullAt(const Table& table, size_t col, size_t row) {
  std::vector<Column> columns;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& column = table.column(c);
    const std::string& name = table.schema().field(c).name;
    if (column.is_numeric()) {
      std::vector<double> values = column.numeric_data();
      if (c == col) values[row] = NullNumeric();
      columns.push_back(Column::FromNumeric(name, std::move(values)));
    } else {
      std::vector<std::string> labels;
      for (const CategoryCode code : column.codes()) {
        labels.push_back(code == kNullCategory
                             ? std::string()
                             : column.dictionary()[static_cast<size_t>(code)]);
      }
      columns.push_back(Column::FromStrings(name, labels));
    }
  }
  return Table::FromColumns(std::move(columns)).ValueOrDie();
}

// A cold read after an append that puts the first NULL into a column of a
// tracked numeric pair: generation 0 scans copy that pair's count and x/y
// sums from the column sketches, generation 1 scans must stop doing so.
TEST(EngineTest, ServerColdReadAfterNullIntroducingAppendMatchesFreshEngine) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  ServeOptions options;
  options.cache_enabled = false;  // every read scans, as a fresh engine does
  options.engine.search.min_tightness = 0.5;
  std::unique_ptr<ZiggyServer> server =
      ZiggyServer::Create(ds.table, options).ValueOrDie();
  const uint64_t session = server->OpenSession();
  const auto state0 = server->state();
  const auto [target, partner] =
      state0->profile->tracked_numeric_pairs().at(0);
  for (const size_t c : {target, partner}) {
    ASSERT_EQ(static_cast<size_t>(state0->profile->ColumnSketch(c).count),
              ds.table.num_rows());
  }
  auto expect_fresh = [&] {
    const auto state = server->state();
    ZiggyEngine fresh =
        ZiggyEngine::CreateShared(state->snapshot.shared_table(),
                                  state->profile, state->dendrogram,
                                  options.engine)
            .ValueOrDie();
    const Schema& schema = state->table().schema();
    for (const std::string& query :
         {ds.selection_predicate, std::string("revenue_index > 1.2")}) {
      EXPECT_EQ(RenderCharacterizationReport(
                    server->Characterize(session, query).ValueOrDie(), schema),
                RenderCharacterizationReport(
                    fresh.CharacterizeQuery(query).ValueOrDie(), schema))
          << "generation " << state->generation() << ": " << query;
    }
  };
  expect_fresh();

  // A sampled batch with one NULL in the target column.
  Rng rng(9);
  ASSERT_TRUE(
      server->Append(WithNullAt(ds.table.SampleRows(40, &rng), target, 7))
          .ok());
  ASSERT_LT(static_cast<size_t>(
                server->state()->profile->ColumnSketch(target).count),
            server->state()->table().num_rows());
  expect_fresh();
}

// The server's sketches against the row-at-a-time reference, which no
// production path runs: after every cold, patched and exact read, before
// and after an append that puts a NULL into a tracked numeric pair's
// column (and selects its row), the sketches FindCachedSketches returns
// are bitwise AddRow over the selection's rows in row order, or, for a
// patched read, that reference of its base patched by AddRow/RemoveRow.
TEST(EngineTest, ServerCachedSketchesMatchRowByRowReference) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  ServeOptions options;
  options.session.novelty = SessionOptions::NoveltyPolicy::kOff;
  std::unique_ptr<ZiggyServer> server =
      ZiggyServer::Create(ds.table, options).ValueOrDie();
  const uint64_t session = server->OpenSession();
  const size_t target =
      server->state()->profile->tracked_numeric_pairs().at(0).first;
  const std::string target_name = ds.table.schema().field(target).name;

  // The rows ranked skip + 1 .. k by generation 0's revenue_index, so a
  // patch from band(0, k) to band(skip, k') removes and adds rows.
  std::vector<double> revenue =
      ds.table
          .column(ds.table.schema().GetFieldIndex("revenue_index").ValueOrDie())
          .numeric_data();
  std::sort(revenue.begin(), revenue.end(), std::greater<>());
  const auto band = [&](size_t skip, size_t k) {
    char buf[128];
    if (skip == 0) {
      std::snprintf(buf, sizeof(buf), "(revenue_index >= %.17g)",
                    revenue[k - 1]);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "(revenue_index >= %.17g AND revenue_index < %.17g)",
                    revenue[k - 1], revenue[skip - 1]);
    }
    return std::string(buf);
  };

  // Reference sketches per query text, on the current generation.
  std::map<std::string, std::pair<Selection, SelectionSketches>> refs;
  const auto read = [&](const std::string& query, SketchSource source,
                        const std::string& base_query) {
    SCOPED_TRACE(query);
    const Characterization result =
        server->Characterize(session, query).ValueOrDie();
    EXPECT_EQ(result.sketch_source, source);
    const auto state = server->state();
    const Table& table = state->table();
    const TableProfile& profile = *state->profile;
    const Selection sel =
        ParsePredicate(query).ValueOrDie()->Evaluate(table).ValueOrDie();
    SelectionSketches ref;
    if (source == SketchSource::kServerScan) {
      ref.InitShapes(table, profile);
      sel.ForEachSetBit([&](size_t r) { ref.AddRow(table, profile, r); });
    } else {
      const auto& [base_sel, base_ref] = refs.at(base_query);
      ref = base_ref;
      size_t added = 0;
      size_t removed = 0;
      for (size_t r = 0; r < table.num_rows(); ++r) {
        if (base_sel.Contains(r) == sel.Contains(r)) continue;
        if (sel.Contains(r)) {
          ref.AddRow(table, profile, r);
          ++added;
        } else {
          ref.RemoveRow(table, profile, r);
          ++removed;
        }
      }
      if (source == SketchSource::kCachePatched) {
        EXPECT_GT(added, 0u);
        EXPECT_GT(removed, 0u);
      }
    }
    const auto cached = server->FindCachedSketches(sel);
    ASSERT_NE(cached, nullptr);
    EXPECT_TRUE(cached->Equals(ref));
    refs.insert_or_assign(query, std::make_pair(sel, std::move(ref)));
  };

  read(band(0, 150), SketchSource::kServerScan, "");
  read(band(10, 175), SketchSource::kCachePatched, band(0, 150));
  read(band(10, 175), SketchSource::kCacheExact, band(10, 175));

  Rng rng(9);
  ASSERT_TRUE(
      server->Append(WithNullAt(ds.table.SampleRows(40, &rng), target, 7))
          .ok());
  const size_t null_row = ds.table.num_rows() + 7;
  const std::string with_null = " OR " + target_name + " IS NULL";
  refs.clear();
  read(band(0, 120) + with_null, SketchSource::kServerScan, "");
  read(band(10, 140) + with_null, SketchSource::kCachePatched,
       band(0, 120) + with_null);
  read(band(10, 140) + with_null, SketchSource::kCacheExact,
       band(10, 140) + with_null);
  for (const auto& [query, entry] : refs) {
    EXPECT_TRUE(entry.first.Contains(null_row)) << query;
  }
}

TEST(EngineTest, ViewsMatchTwoScanComponents) {
  // The engine's one-scan preparation against the two-scan reference: the
  // same view search and validation over the reference's components.
  ZiggyEngine engine = MakeEngine();
  const std::string query = "revenue_index > 1.2";
  const Characterization a = engine.CharacterizeQuery(query).ValueOrDie();
  const Selection sel =
      ParseQuery(query).ValueOrDie()->Evaluate(engine.table()).ValueOrDie();
  const ComponentTable reference =
      BuildComponentsTwoScan(engine.table(), engine.profile(), sel,
                             engine.options().build)
          .ValueOrDie();
  const ZiggyOptions& opts = engine.options();
  ViewSearchResult b = ViewPlan::Build(engine.profile(),
                                       *engine.shared_dendrogram(), opts.search)
                           .ValueOrDie()
                           .Search(reference, opts.search);
  ValidateViews(&b.views, reference, opts.validation);
  ASSERT_EQ(a.views.size(), b.views.size());
  for (size_t i = 0; i < a.views.size(); ++i) {
    EXPECT_EQ(a.views[i].view.columns, b.views[i].columns);
    EXPECT_NEAR(a.views[i].view.score.total, b.views[i].score.total, 1e-9);
  }
}

// A stand-alone engine and a one-session server replay one refinement
// chain: both prepare through ProvideSketches, so every read must take the
// same path (exact hit, patch of the same size, or scan) and render the
// same report.
TEST(EngineTest, StandAloneEngineAndServerSessionPrepareAlike) {
  SyntheticDataset ds = MakeCrimeDataset().ValueOrDie();
  const std::vector<std::string> chain = {
      ds.selection_predicate,
      "violent_crime_rate > 1.0",
      "violent_crime_rate > 1.1",                     // narrow
      "violent_crime_rate > 0.9",                     // widen
      "violent_crime_rate BETWEEN 0.9 AND 2.5",       // narrow from above
      "violent_crime_rate BETWEEN 1.0 AND 2.6",       // shift
      "violent_crime_rate BETWEEN 1.05 AND 2.65",     // shift
      "population_0 > 1",                             // unrelated: scan
      "violent_crime_rate > 1.0",                     // repeat
      "violent_crime_rate > 1.0 AND population_0 > -1",
      ds.selection_predicate,
  };
  ZiggyEngine engine = ZiggyEngine::Create(ds.table).ValueOrDie();
  std::unique_ptr<ZiggyServer> server =
      ZiggyServer::Create(ds.table).ValueOrDie();
  SessionOptions session_options;
  session_options.novelty = SessionOptions::NoveltyPolicy::kOff;
  const uint64_t session = server->OpenSession(session_options);
  const Schema& schema = engine.table().schema();
  std::set<SketchSource> sources;
  for (const std::string& query : chain) {
    const Characterization alone = engine.CharacterizeQuery(query).ValueOrDie();
    const Characterization served =
        server->Characterize(session, query).ValueOrDie();
    EXPECT_EQ(SketchSourceToString(alone.sketch_source),
              SketchSourceToString(served.sketch_source))
        << query;
    EXPECT_EQ(alone.delta_rows, served.delta_rows) << query;
    EXPECT_EQ(RenderCharacterizationReport(alone, schema),
              RenderCharacterizationReport(served, schema))
        << query;
    sources.insert(alone.sketch_source);
  }
  // The chain exercises every path.
  EXPECT_EQ(sources, (std::set<SketchSource>{
                         SketchSource::kCacheExact,
                         SketchSource::kCachePatched,
                         SketchSource::kServerScan}));
}

TEST(EngineTest, ToStringContainsViewsAndTimings) {
  ZiggyEngine engine = MakeEngine();
  Characterization r = engine.CharacterizeQuery("revenue_index > 1.2").ValueOrDie();
  const std::string s = r.ToString(engine.table().schema());
  EXPECT_NE(s.find("Stage timings"), std::string::npos);
  EXPECT_NE(s.find("#1"), std::string::npos);
  EXPECT_NE(s.find("score="), std::string::npos);
}

TEST(EngineTest, DendrogramAsciiMentionsColumns) {
  ZiggyEngine engine = MakeEngine();
  const std::string d = engine.DendrogramAscii();
  EXPECT_NE(d.find("budget_0"), std::string::npos);
}

TEST(EngineTest, DeterministicAcrossRuns) {
  SyntheticDataset ds1 = MakeBoxOfficeDataset(123).ValueOrDie();
  SyntheticDataset ds2 = MakeBoxOfficeDataset(123).ValueOrDie();
  ZiggyEngine e1 = ZiggyEngine::Create(std::move(ds1.table)).ValueOrDie();
  ZiggyEngine e2 = ZiggyEngine::Create(std::move(ds2.table)).ValueOrDie();
  Characterization r1 = e1.CharacterizeQuery(ds1.selection_predicate).ValueOrDie();
  Characterization r2 = e2.CharacterizeQuery(ds2.selection_predicate).ValueOrDie();
  ASSERT_EQ(r1.views.size(), r2.views.size());
  for (size_t i = 0; i < r1.views.size(); ++i) {
    EXPECT_EQ(r1.views[i].view.columns, r2.views[i].view.columns);
    EXPECT_DOUBLE_EQ(r1.views[i].view.score.total, r2.views[i].view.score.total);
  }
}

}  // namespace
}  // namespace ziggy
