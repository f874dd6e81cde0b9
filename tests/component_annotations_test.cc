// Deferred component annotations: the p-value and range label a
// ZigComponent evaluates on read must equal, bit for bit, what the eager
// test functions give on the same sketches. Covered for a cold build, the
// engine's patched preparation (ProvideSketches) and a threaded scan.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>

#include "common/string_util.h"
#include "data/synthetic.h"
#include "engine/sketch_cache.h"
#include "stats/histogram.h"
#include "stats/tests.h"
#include "zig/component_builder.h"

namespace ziggy {
namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

NumericStats StatsOf(const MomentSketch& s) {
  NumericStats ns;
  ns.count = s.count;
  ns.mean = s.Mean();
  ns.m2 = s.Variance() *
          std::max<double>(0.0, static_cast<double>(s.count) - 1.0);
  return ns;
}

// Index of the bin (or category) where the inside share most exceeds the
// outside share; first such index on ties.
size_t MostOverRepresented(std::span<const int64_t> in,
                           std::span<const int64_t> out) {
  const auto p = NormalizeCounts(in, 0.0);
  const auto q = NormalizeCounts(out, 0.0);
  size_t best = 0;
  double best_gain = -1.0;
  for (size_t b = 0; b < p.size(); ++b) {
    if (p[b] - q[b] > best_gain) {
      best_gain = p[b] - q[b];
      best = b;
    }
  }
  return best;
}

// Checks every component of `components` against the eager tests run on
// the (inside, outside) sketches it was built from; returns the kinds seen.
std::set<ComponentKind> ExpectDeferredMatchesEager(
    const Table& table, const TableProfile& profile,
    const SelectionSketches& inside, const SelectionSketches& outside,
    const ComponentTable& components) {
  std::set<ComponentKind> kinds;
  for (const ZigComponent& c : components.components()) {
    kinds.insert(c.kind);
    SCOPED_TRACE(std::string(ComponentKindToString(c.kind)) + " on column " +
                 std::to_string(c.col_a));
    const size_t col = c.col_a;
    double eager_p = 1.0;
    std::string eager_detail;
    switch (c.kind) {
      case ComponentKind::kMeanShift:
        eager_p = WelchTTest(StatsOf(inside.column_sketch(col)),
                             StatsOf(outside.column_sketch(col)))
                      .p_value;
        break;
      case ComponentKind::kDispersionShift:
        eager_p = VarianceFTest(StatsOf(inside.column_sketch(col)),
                                StatsOf(outside.column_sketch(col)))
                      .p_value;
        break;
      case ComponentKind::kRankShift: {
        const int64_t n_in = inside.column_sketch(col).count;
        const int64_t n_out = profile.ColumnSketch(col).count - n_in;
        const MannWhitneyCounts mw =
            MannWhitneyFromRankSum(inside.rank_sum(col), n_in, n_out);
        eager_p = CliffsDelta(mw.u, mw.n_in, mw.n_out).PValue();
        break;
      }
      case ComponentKind::kDistributionShift: {
        const auto& in_h = inside.histogram(col);
        const auto& out_h = outside.histogram(col);
        eager_p = ChiSquareHomogeneityTest(in_h, out_h).p_value;
        const auto [lo, hi] = profile.ColumnRange(col);
        const double width = (hi - lo) / static_cast<double>(in_h.size());
        const auto best = static_cast<double>(MostOverRepresented(in_h, out_h));
        eager_detail = "[" + FormatDouble(lo + width * best) + ", " +
                       FormatDouble(lo + width * (best + 1)) + ")";
        break;
      }
      case ComponentKind::kFrequencyShift: {
        const auto& in_c = inside.category_counts(col);
        const auto& out_c = outside.category_counts(col);
        eager_p = ChiSquareHomogeneityTest(in_c, out_c).p_value;
        eager_detail =
            table.column(col).dictionary()[MostOverRepresented(in_c, out_c)];
        break;
      }
      case ComponentKind::kCorrelationShift:
      case ComponentKind::kAssociationShift:
      case ComponentKind::kContingencyShift:
        eager_p = CorrelationDifference(c.inside_value, c.inside_n,
                                        c.outside_value, c.outside_n)
                      .PValue();
        break;
    }
    EXPECT_EQ(Bits(c.p_value()), Bits(eager_p));
    EXPECT_EQ(c.detail(), eager_detail);
  }
  return kinds;
}

SelectionSketches Complement(const Table& table, const TableProfile& profile,
                             const SelectionSketches& inside) {
  SelectionSketches outside;
  outside.InitShapes(table, profile);
  outside.DeriveAsComplement(profile, inside);
  return outside;
}

struct Dataset {
  SyntheticDataset ds;
  TableProfile profile;
};

Dataset Load(Result<SyntheticDataset> generated) {
  SyntheticDataset ds = std::move(generated).ValueOrDie();
  TableProfile profile = TableProfile::Compute(ds.table).ValueOrDie();
  return {std::move(ds), std::move(profile)};
}

TEST(DeferredAnnotationsTest, ColdBuildMatchesEagerTests) {
  std::set<ComponentKind> kinds;
  for (auto* make : {+[] { return MakeBoxOfficeDataset(); },
                     +[] { return MakeCrimeDataset(); }}) {
    const Dataset d = Load(make());
    const Table& table = d.ds.table;
    const Selection& sel = d.ds.planted;
    const ComponentTable ct =
        BuildComponents(table, d.profile, sel).ValueOrDie();
    const SelectionSketches inside =
        SelectionSketches::Build(table, d.profile, sel);
    const auto seen = ExpectDeferredMatchesEager(
        table, d.profile, inside, Complement(table, d.profile, inside), ct);
    kinds.insert(seen.begin(), seen.end());
  }
  // Every kind, hence every deferred test, was exercised.
  EXPECT_EQ(kinds.size(), kNumComponentKinds);
}

TEST(DeferredAnnotationsTest, PatchedPreparationMatchesEagerTests) {
  const Dataset d = Load(MakeCrimeDataset());
  const Table& table = d.ds.table;
  const Selection first = d.ds.planted;
  Selection second = first;
  for (size_t r = 0; r < 40; ++r) second.Set(r * 7, !second.Contains(r * 7));

  SketchCache cache(SketchCache::kDefaultBudgetBytes);
  ASSERT_EQ(ProvideSketches(table, d.profile, first, first.Fingerprint(),
                            &cache, ProvideSketchesOptions{})
                .source,
            SketchSource::kServerScan);
  const ProvidedSketches patched =
      ProvideSketches(table, d.profile, second, second.Fingerprint(), &cache,
                      ProvideSketchesOptions{});
  ASSERT_EQ(patched.source, SketchSource::kCachePatched);
  ASSERT_EQ(patched.delta_rows, 40u);
  const ComponentTable ct =
      BuildComponentsFromSketches(table, d.profile, second, *patched.inside,
                                  Complement(table, d.profile, *patched.inside),
                                  ComponentBuildOptions{})
          .ValueOrDie();

  // Replay the patch: the previous inside sketches plus the symmetric
  // difference, in ascending row order.
  SelectionSketches inside = SelectionSketches::Build(table, d.profile, first);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (first.Contains(r) == second.Contains(r)) continue;
    if (second.Contains(r)) {
      inside.AddRow(table, d.profile, r);
    } else {
      inside.RemoveRow(table, d.profile, r);
    }
  }
  ExpectDeferredMatchesEager(table, d.profile, inside,
                             Complement(table, d.profile, inside), ct);
}

TEST(DeferredAnnotationsTest, ThreadedScanMatchesEagerTests) {
  const Dataset d = Load(MakeCrimeDataset());
  const Table& table = d.ds.table;
  const Selection& sel = d.ds.planted;
  ComponentBuildOptions options;
  options.num_threads = 3;
  const ComponentTable ct =
      BuildComponents(table, d.profile, sel, options).ValueOrDie();
  const SelectionSketches inside =
      SelectionSketches::Build(table, d.profile, sel, 3);
  ExpectDeferredMatchesEager(table, d.profile, inside,
                             Complement(table, d.profile, inside), ct);
}

}  // namespace
}  // namespace ziggy
