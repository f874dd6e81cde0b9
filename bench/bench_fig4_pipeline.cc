// Experiment F4 — instruments paper Figure 4: "Ziggy's Tuples Description
// Pipeline" (Preparation -> View Search -> Post-Processing).
//
// For each use-case dataset the harness runs a workload of exploration
// queries and reports the wall-clock share of every stage. Paper shape
// (§3): "[Preparation] is often the most time consuming step."
//
// A final section A/B-tests the preparation kernel itself on a 1M-row
// synthetic workload: seed row-at-a-time accumulation vs. the columnar
// blocked scan, sequential and threaded.
//
// `--json [path]` additionally writes the machine-readable report
// (default BENCH_pipeline.json) with per-phase timings and rows/sec.

#include <iostream>

#include "bench_util.h"
#include "data/synthetic.h"
#include "zig/profile.h"

using namespace ziggy;
using namespace ziggy::bench;

namespace {

void RunDataset(const std::string& name, SyntheticDataset ds, size_t num_queries,
                JsonWriter* report) {
  Rng rng(99);
  std::vector<std::string> queries = GenerateWorkload(ds.table, num_queries, &rng);
  queries.push_back(ds.selection_predicate);
  const size_t num_rows = ds.table.num_rows();
  const size_t num_cols = ds.table.num_columns();

  // One-off cost: the shared profile, amortized over the session.
  double profile_ms = 0.0;
  {
    const Table& t = ds.table;
    profile_ms = TimeMs([&] { TableProfile::Compute(t).ValueOrDie(); });
  }

  ZiggyEngine engine = ZiggyEngine::Create(std::move(ds.table)).ValueOrDie();

  StageTimings total;
  size_t completed = 0;
  for (const auto& q : queries) {
    Result<Characterization> r = engine.CharacterizeQuery(q);
    if (!r.ok()) continue;  // degenerate random band (selects all/nothing)
    total.preparation_ms += r->timings.preparation_ms;
    total.search_ms += r->timings.search_ms;
    total.post_processing_ms += r->timings.post_processing_ms;
    ++completed;
  }
  if (completed == 0) {
    std::cout << name << ": no query in the workload produced a valid "
                         "selection; skipping\n\n";
    return;
  }
  const double sum = total.total_ms();
  ResultTable table({"stage", "total ms", "ms/query", "share"});
  table.AddRow({"(one-off) profile build", Fmt(profile_ms, 4), "-", "-"});
  table.AddRow({"preparation", Fmt(total.preparation_ms, 4),
                Fmt(total.preparation_ms / static_cast<double>(completed), 3),
                Fmt(100.0 * total.preparation_ms / sum, 3) + "%"});
  table.AddRow({"view search", Fmt(total.search_ms, 4),
                Fmt(total.search_ms / static_cast<double>(completed), 3),
                Fmt(100.0 * total.search_ms / sum, 3) + "%"});
  table.AddRow({"post-processing", Fmt(total.post_processing_ms, 4),
                Fmt(total.post_processing_ms / static_cast<double>(completed), 3),
                Fmt(100.0 * total.post_processing_ms / sum, 3) + "%"});
  std::cout << name << " (" << completed << " queries)\n";
  table.Print();
  std::cout << "\n";

  const double prep_per_query =
      total.preparation_ms / static_cast<double>(completed);
  JsonWriter& w = *report;
  w.BeginObject().Key("name").String(name);
  w.Key("rows").Uint(num_rows);
  w.Key("cols").Uint(num_cols);
  w.Key("queries").Uint(completed);
  w.Key("profile_ms").Double(profile_ms, kReportDigits);
  w.Key("preparation_ms").Double(total.preparation_ms, kReportDigits);
  w.Key("search_ms").Double(total.search_ms, kReportDigits);
  w.Key("post_processing_ms").Double(total.post_processing_ms, kReportDigits);
  w.Key("preparation_ms_per_query").Double(prep_per_query, kReportDigits);
  w.Key("preparation_rows_per_sec");
  w.Double(RowsPerSec(num_rows, prep_per_query), kReportDigits);
  w.EndObject();
}

void RunKernelAB(JsonWriter* report) {
  // 1M-row synthetic workload: the accumulation kernel in isolation, swept
  // over selection densities (sparse selections are gather-latency-bound,
  // dense ones expose the columnar advantage fully).
  SyntheticSpec spec;
  spec.num_rows = 1000000;
  spec.planted_fraction = 0.1;
  spec.themes.push_back({"theme0", 4, 0.8, 1.5, 1.0, 0.0});
  spec.themes.push_back({"theme1", 4, 0.8, 0.0, 1.0, 0.0});
  spec.num_noise_columns = 3;
  spec.num_categorical = 2;
  spec.num_shifted_categorical = 1;
  spec.seed = 2024;
  SyntheticDataset ds = GenerateSynthetic(spec).ValueOrDie();
  TableProfile profile = TableProfile::Compute(ds.table).ValueOrDie();
  const size_t n = ds.table.num_rows();

  std::cout << "Accumulation kernel, 1M rows x " << ds.table.num_columns()
            << " cols (best of 3):\n";
  ResultTable table({"density", "row-at-a-time ms", "columnar ms", "2 thr ms",
                     "4 thr ms", "speedup(1t)"});
  JsonWriter& w = *report;
  w.BeginArray();
  for (double density : {0.1, 0.5, 0.9}) {
    Rng rng(3);
    Selection sel(n);
    for (size_t r = 0; r < n; ++r) {
      if (rng.Bernoulli(density)) sel.Set(r);
    }
    const AccumulationAB ab = MeasureAccumulation(ds.table, profile, sel);
    table.AddRow({Fmt(density, 1), Fmt(ab.row_at_a_time_ms, 4),
                  Fmt(ab.columnar_ms, 4), Fmt(ab.threaded2_ms, 4),
                  Fmt(ab.threaded4_ms, 4), Fmt(ab.Speedup(), 2)});
    w.BeginObject().Key("rows").Uint(n);
    w.Key("cols").Uint(ds.table.num_columns());
    w.Key("selected_fraction").Double(density, kReportDigits);
    WriteAccumulation(ab, n, &w);
    w.EndObject();
  }
  w.EndArray();
  table.Print();
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = JsonPathFromArgs(argc, argv, "BENCH_pipeline.json");
  std::cout << "=== F4: pipeline stage costs (Figure 4 instrumented) ===\n\n";
  JsonWriter report;
  report.BeginObject().Key("bench").String("fig4_pipeline");
  report.Key("datasets").BeginArray();
  RunDataset("Box Office (900 x 12)", MakeBoxOfficeDataset().ValueOrDie(), 16,
             &report);
  RunDataset("US Crime (1994 x 128)", MakeCrimeDataset().ValueOrDie(), 12,
             &report);
  RunDataset("OECD (6823 x 519)", MakeOecdDataset().ValueOrDie(), 4, &report);
  report.EndArray();
  report.Key("accumulation_kernel_1m");
  RunKernelAB(&report);
  report.EndObject();
  std::cout << "Paper shape: preparation dominates per-query cost; the view "
               "search and post-processing stages are comparatively cheap.\n";
  if (!json_path.empty()) {
    if (WriteReport(json_path, report)) {
      std::cout << "wrote " << json_path << "\n";
    }
  }
  return 0;
}
