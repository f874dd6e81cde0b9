// Experiment A4 — ablation of incremental (delta) preparation.
//
// Exploration is iterative: users nudge thresholds and re-submit. The
// engine's Preparation routine patches a cached earlier query's sketches
// with only the rows whose membership changed. This harness replays a
// refinement session (a threshold swept in small steps) and compares three
// preparation strategies: two-scan, shared-sketch full scan, and the
// engine's incremental path.

#include <iostream>

#include "bench_util.h"
#include "data/synthetic.h"
#include "engine/ziggy_engine.h"
#include "query/parser.h"
#include "two_scan_reference.h"
#include "zig/component_builder.h"

using namespace ziggy;
using namespace ziggy::bench;

namespace {

// The refinement session: thresholds sweeping the driver's upper tail.
std::vector<Selection> MakeSession(const Table& table, size_t steps) {
  const auto& driver = table.column(0).numeric_data();
  std::vector<Selection> out;
  for (size_t s = 0; s < steps; ++s) {
    // From the 85th to the 92nd percentile in small increments.
    const double q = 0.85 + 0.07 * static_cast<double>(s) / static_cast<double>(steps);
    const double lo = Quantile(driver, q);
    Selection sel(table.num_rows());
    for (size_t i = 0; i < driver.size(); ++i) {
      if (driver[i] >= lo) sel.Set(i);
    }
    out.push_back(std::move(sel));
  }
  return out;
}

}  // namespace

int main() {
  std::cout << "=== A4: incremental preparation on a refinement session ===\n\n";
  SyntheticDataset ds = MakeCrimeDataset().ValueOrDie();
  Table table = std::move(ds.table);
  TableProfile profile = TableProfile::Compute(table).ValueOrDie();
  const std::vector<Selection> session = MakeSession(table, 24);
  std::cout << "Session: " << session.size()
            << " consecutive refinements of the high-crime threshold "
               "(selection sizes "
            << session.front().Count() << " -> " << session.back().Count() << ")\n\n";

  ResultTable out({"strategy", "total ms", "ms/query", "notes"});

  {
    const double ms = TimeMs([&] {
      for (const auto& sel : session) {
        BuildComponentsTwoScan(table, profile, sel).ValueOrDie();
      }
    });
    out.AddRow({"two-scan", Fmt(ms, 4), Fmt(ms / static_cast<double>(session.size()), 4),
                "scans all rows twice per query"});
  }
  {
    const double ms = TimeMs([&] {
      for (const auto& sel : session) {
        BuildComponents(table, profile, sel).ValueOrDie();
      }
    });
    out.AddRow({"shared full scan", Fmt(ms, 4),
                Fmt(ms / static_cast<double>(session.size()), 4),
                "scans the selection once per query"});
  }
  {
    // The engine's own preparation time (sketch lookup, patch or scan, and
    // assembly); every query prepares.
    ZiggyEngine engine = ZiggyEngine::Create(table).ValueOrDie();
    size_t patched_queries = 0;
    size_t delta_total = 0;
    double ms = 0.0;
    for (const auto& sel : session) {
      const Characterization r = engine.Characterize(sel).ValueOrDie();
      ms += r.timings.preparation_ms;
      if (r.sketch_source == SketchSource::kCachePatched) {
        ++patched_queries;
        delta_total += r.delta_rows;
      }
    }
    out.AddRow({"incremental", Fmt(ms, 4),
                Fmt(ms / static_cast<double>(session.size()), 4),
                std::to_string(patched_queries) + "/" +
                    std::to_string(session.size()) + " queries delta-patched, avg " +
                    Fmt(static_cast<double>(delta_total) /
                            std::max<size_t>(patched_queries, 1), 3) +
                    " rows/patch"});
  }
  out.Print();
  std::cout << "\nPaper shape: when consecutive queries overlap, patching the "
               "previous sketches beats even the one-scan strategy, because "
               "the work becomes proportional to the *change* in the "
               "selection rather than its size.\n";
  return 0;
}
