// Tests for selection-sketch reuse: SketchCache::Find (the one lookup of
// the sketch cache), the one patch-or-scan rule,
// SelectionSketches::MaxPatchDelta, as ProvideSketches applies it for a
// stand-alone engine (private cache) and for ZiggyServer (shared cache),
// and the server's cache flush on append.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/sketch_cache.h"
#include "serve/ziggy_server.h"
#include "zig/component_builder.h"

namespace ziggy {
namespace {

// ------------------------------------------------------- SketchCache::Find --

constexpr size_t kRows = 256;

Selection RowsBelow(size_t n, size_t num_rows = kRows) {
  Selection s(num_rows);
  for (size_t r = 0; r < n; ++r) s.Set(r);
  return s;
}

std::shared_ptr<const SelectionSketches> Sketches() {
  return std::make_shared<const SelectionSketches>();
}

TEST(SketchCacheFindTest, ExactHitReturnsDeltaZeroAndTheCachedPointer) {
  SketchCache cache(1 << 20);
  const Selection sel = RowsBelow(40);
  const auto inside = Sketches();
  cache.Insert(sel, sel.Fingerprint(), inside, /*generation=*/3);
  const uint64_t insertions = cache.stats().insertions;

  size_t delta = 99;
  auto hit =
      cache.Find(sel, sel.Fingerprint(), 3, /*max_delta_rows=*/20, &delta);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(delta, 0u);
  EXPECT_EQ(hit->inside, inside);
  EXPECT_EQ(cache.stats().insertions, insertions);

  // A zero budget still finds the exact entry.
  delta = 99;
  hit = cache.Find(sel, sel.Fingerprint(), 3, 0, &delta);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(delta, 0u);
  EXPECT_EQ(cache.stats().insertions, insertions);
}

TEST(SketchCacheFindTest, NearestPicksTheSmallestHammingDistanceWithinBudget) {
  SketchCache cache(1 << 20);
  const Selection wanted = RowsBelow(40);
  const Selection far = RowsBelow(43);   // distance 3
  const Selection near = RowsBelow(39);  // distance 1
  const Selection mid = RowsBelow(42);   // distance 2
  for (const Selection* s : {&far, &near, &mid}) {
    cache.Insert(*s, s->Fingerprint(), Sketches(), 0);
  }
  size_t delta = 0;
  auto base = cache.Find(wanted, wanted.Fingerprint(), 0, 10, &delta);
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(delta, 1u);
  EXPECT_TRUE(base->selection == near);

  // The budget is inclusive.
  base = cache.Find(wanted, wanted.Fingerprint(), 0, 1, &delta);
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(delta, 1u);
}

TEST(SketchCacheFindTest, NothingWithinBudgetIsNull) {
  SketchCache cache(1 << 20);
  const Selection base = RowsBelow(50);
  cache.Insert(base, base.Fingerprint(), Sketches(), 0);
  const Selection wanted = RowsBelow(40);  // distance 10
  size_t delta = 7;
  EXPECT_EQ(cache.Find(wanted, wanted.Fingerprint(), 0, 9, &delta), nullptr);
  EXPECT_EQ(cache.Find(wanted, wanted.Fingerprint(), 0, 0, &delta), nullptr);
  ASSERT_NE(cache.Find(wanted, wanted.Fingerprint(), 0, 10, &delta), nullptr);
  EXPECT_EQ(delta, 10u);
}

TEST(SketchCacheFindTest, OtherGenerationsAndRowCountsNeverMatch) {
  SketchCache cache(1 << 20);
  const Selection sel = RowsBelow(40);
  cache.Insert(sel, sel.Fingerprint(), Sketches(), /*generation=*/1);
  size_t delta = 0;
  EXPECT_EQ(cache.Find(sel, sel.Fingerprint(), 2, kRows, &delta), nullptr);
  EXPECT_EQ(cache.Find(RowsBelow(41), RowsBelow(41).Fingerprint(), 2, kRows,
                       &delta),
            nullptr);

  // The same bits over a longer table are a different selection.
  const Selection longer = RowsBelow(40, kRows + 64);
  EXPECT_EQ(cache.Find(longer, longer.Fingerprint(), 1, kRows, &delta),
            nullptr);
  ASSERT_NE(cache.Find(sel, sel.Fingerprint(), 1, 0, &delta), nullptr);
}

// ------------------------------------------------ the patch-or-scan rule --

constexpr size_t kTableRows = 1200;
constexpr size_t kBase = 300;  // |S| of the base selection: id < 300

// `id` numbers the rows, so `id < k` selects exactly rows [0, k). The other
// columns give every sketch kind something to count.
Table MakeIdTable() {
  Rng rng(21);
  std::vector<double> id(kTableRows), x(kTableRows), y(kTableRows);
  std::vector<std::string> kind(kTableRows), tier(kTableRows);
  for (size_t i = 0; i < kTableRows; ++i) {
    id[i] = static_cast<double>(i);
    x[i] = (i < 450 ? 1.5 : 0.0) + rng.Normal();
    y[i] = 0.8 * x[i] + 0.3 * rng.Normal();
    kind[i] = i % 3 == 0 ? "a" : (i % 3 == 1 ? "b" : "c");
    tier[i] = rng.Bernoulli(i < 500 ? 0.7 : 0.3) ? "hi" : "lo";
  }
  return Table::FromColumns({Column::FromNumeric("id", id),
                             Column::FromNumeric("x", x),
                             Column::FromNumeric("y", y),
                             Column::FromStrings("kind", kind),
                             Column::FromStrings("tier", tier)})
      .ValueOrDie();
}

// A patched preparation against a fresh scan: integer counts exactly,
// effects within summation-order error.
void ExpectSameComponents(const ComponentTable& patched,
                          const ComponentTable& fresh) {
  ASSERT_EQ(patched.size(), fresh.size());
  ASSERT_GT(fresh.size(), 0u);
  for (size_t i = 0; i < fresh.size(); ++i) {
    const ZigComponent& a = patched.components()[i];
    const ZigComponent& b = fresh.components()[i];
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.inside_n, b.inside_n) << i;
    EXPECT_EQ(a.outside_n, b.outside_n) << i;
    EXPECT_NEAR(a.effect.value, b.effect.value, 1e-7) << i;
  }
}

TEST(PatchRuleTest, MaxPatchDeltaIsHalfTheSelection) {
  EXPECT_EQ(SelectionSketches::MaxPatchDelta(0), 0u);
  EXPECT_EQ(SelectionSketches::MaxPatchDelta(1), 0u);
  EXPECT_EQ(SelectionSketches::MaxPatchDelta(600), 300u);
  EXPECT_EQ(SelectionSketches::MaxPatchDelta(601), 300u);
}

// From `id < 300`, the query `id < 300 + k` is k rows away and selects
// 300 + k rows: k = 300 is exactly |S| / 2 (patch), k = 301 is |S| / 2 + 1
// (scan).
TEST(PatchRuleTest, EnginePatchesUpToHalfTheSelectionAndMatchesAScan) {
  const Table table = MakeIdTable();
  for (const size_t k : {kBase, kBase + 1}) {
    ZiggyEngine engine = ZiggyEngine::Create(table).ValueOrDie();
    ASSERT_EQ(engine.CharacterizeQuery("id < " + std::to_string(kBase))
                  .ValueOrDie()
                  .sketch_source,
              SketchSource::kServerScan);
    const std::string query = "id < " + std::to_string(kBase + k);
    const Characterization second =
        engine.CharacterizeQuery(query).ValueOrDie();
    if (k == kBase + 1) {
      EXPECT_EQ(second.sketch_source, SketchSource::kServerScan) << k;
      EXPECT_EQ(second.delta_rows, 0u);
      continue;
    }
    ASSERT_EQ(second.sketch_source, SketchSource::kCachePatched) << k;
    EXPECT_EQ(second.delta_rows, k);

    // Against a fresh engine, whose first read scans.
    ZiggyEngine fresh = ZiggyEngine::Create(table).ValueOrDie();
    const Characterization scanned =
        fresh.CharacterizeQuery(query).ValueOrDie();
    ASSERT_EQ(scanned.sketch_source, SketchSource::kServerScan);
    EXPECT_EQ(second.inside_count, scanned.inside_count);
    EXPECT_EQ(second.num_candidates, scanned.num_candidates);
    ASSERT_EQ(second.views.size(), scanned.views.size());
    ASSERT_GT(scanned.views.size(), 0u);
    for (size_t i = 0; i < scanned.views.size(); ++i) {
      EXPECT_EQ(second.views[i].view.columns, scanned.views[i].view.columns);
      EXPECT_NEAR(second.views[i].view.score.total,
                  scanned.views[i].view.score.total, 1e-7)
          << i;
    }
  }
}

TEST(PatchRuleTest, ServerPatchesUpToHalfTheSelectionAndMatchesAScan) {
  const Table table = MakeIdTable();
  for (const size_t k : {kBase, kBase + 1}) {
    std::unique_ptr<ZiggyServer> server =
        ZiggyServer::Create(table).ValueOrDie();
    SessionOptions session_options;
    session_options.novelty = SessionOptions::NoveltyPolicy::kOff;
    const uint64_t session = server->OpenSession(session_options);
    const Characterization first =
        server->Characterize(session, "id < " + std::to_string(kBase))
            .ValueOrDie();
    ASSERT_EQ(first.sketch_source, SketchSource::kServerScan);
    const Characterization second =
        server->Characterize(session, "id < " + std::to_string(kBase + k))
            .ValueOrDie();
    if (k == kBase + 1) {
      EXPECT_EQ(second.sketch_source, SketchSource::kServerScan) << k;
      EXPECT_EQ(server->stats().sketch_patched_hits, 0u);
      continue;
    }
    ASSERT_EQ(second.sketch_source, SketchSource::kCachePatched) << k;
    EXPECT_EQ(server->stats().patched_delta_rows, k);

    // The patched sketches the server cached against a fresh scan.
    const Selection wanted = RowsBelow(kBase + k, kTableRows);
    const auto state = server->state();
    const TableProfile& profile = *state->profile;
    std::shared_ptr<const SelectionSketches> patched =
        server->FindCachedSketches(wanted);
    ASSERT_NE(patched, nullptr);
    const SelectionSketches scanned =
        SelectionSketches::Build(table, profile, wanted);
    for (size_t c = 0; c < table.num_columns(); ++c) {
      EXPECT_EQ(patched->column_sketch(c).count,
                scanned.column_sketch(c).count);
      EXPECT_TRUE(std::ranges::equal(patched->category_counts(c),
                                     scanned.category_counts(c)));
      EXPECT_TRUE(
          std::ranges::equal(patched->histogram(c), scanned.histogram(c)));
    }
    for (size_t i = 0; i < profile.tracked_categorical_pairs().size(); ++i) {
      EXPECT_TRUE(std::ranges::equal(patched->categorical_pair_table(i),
                                     scanned.categorical_pair_table(i)));
    }

    SelectionSketches outside;
    outside.InitShapes(table, profile);
    outside.DeriveAsComplement(profile, *patched);
    ExpectSameComponents(
        BuildComponentsFromSketches(table, profile, wanted, *patched, outside,
                                    ComponentBuildOptions{})
            .ValueOrDie(),
        BuildComponents(table, profile, wanted).ValueOrDie());
  }
}

// --------------------------------------------------------------- appends --

// `n` rows for MakeIdTable's table whose every value lies inside its
// columns' ranges and category sets.
Table MakeInRangeRows(size_t n) {
  std::vector<double> id(n), zero(n, 0.0);
  std::vector<std::string> kind(n, "a"), tier(n, "lo");
  for (size_t i = 0; i < n; ++i) id[i] = static_cast<double>(1000 + i);
  return Table::FromColumns({Column::FromNumeric("id", id),
                             Column::FromNumeric("x", zero),
                             Column::FromNumeric("y", zero),
                             Column::FromStrings("kind", kind),
                             Column::FromStrings("tier", tier)})
      .ValueOrDie();
}

TEST(SketchCacheAppendTest, AppendClearsTheCacheAndTheNextReadScans) {
  // The appended rows stay inside every column's range and category set,
  // so the profile update re-bins nothing. The cache is cleared all the
  // same: the append moved the midranks of old rows, so every cached rank
  // sum is stale.
  std::unique_ptr<ZiggyServer> server =
      ZiggyServer::Create(MakeIdTable()).ValueOrDie();
  SessionOptions session_options;
  session_options.novelty = SessionOptions::NoveltyPolicy::kOff;
  const uint64_t session = server->OpenSession(session_options);
  const std::string query = "id < " + std::to_string(kBase);
  ASSERT_EQ(server->Characterize(session, query).ValueOrDie().sketch_source,
            SketchSource::kServerScan);
  ASSERT_NE(server->FindCachedSketches(RowsBelow(kBase, kTableRows)), nullptr);

  const size_t added = 10;
  const uint64_t flushes = server->stats().cache_flushes;
  ASSERT_TRUE(server->Append(MakeInRangeRows(added)).ok());
  EXPECT_EQ(server->stats().cache_flushes, flushes + 1);
  EXPECT_EQ(server->stats().cache.entries, 0u);
  // Neither the old bitmap nor the same rows over the grown table is found.
  EXPECT_EQ(server->FindCachedSketches(RowsBelow(kBase, kTableRows)), nullptr);
  EXPECT_EQ(server->FindCachedSketches(RowsBelow(kBase, kTableRows + added)),
            nullptr);
  EXPECT_EQ(server->Characterize(session, query).ValueOrDie().sketch_source,
            SketchSource::kServerScan);
}

}  // namespace
}  // namespace ziggy
