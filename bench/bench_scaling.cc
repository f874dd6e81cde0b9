// Experiment S1 — scalability sweeps ("datasets of all levels of
// complexity", §1/§4).
//
// Three sweeps: rows at fixed width, columns at fixed row count, and the
// accumulation kernel alone up to 1M rows. For the first two the harness
// reports the one-off profile cost and the per-query characterization
// cost; the kernel sweep A/B-tests seed row-at-a-time accumulation against
// the columnar blocked scan (sequential and threaded). Paper shape:
// per-query cost grows ~linearly in the selection size and in the number
// of (tracked) columns; the quadratic pair blow-up is confined to the
// amortized profile stage.
//
// `--json [path]` writes the machine-readable report (default
// BENCH_scaling.json).

#include <iostream>
#include <optional>

#include "bench_util.h"
#include "common/logging.h"
#include "data/synthetic.h"

using namespace ziggy;
using namespace ziggy::bench;

namespace {

SyntheticDataset MakeScaled(size_t rows, size_t cols, uint64_t seed) {
  // Columns: 1 driver + themes of 4 + noise filling the remainder.
  SyntheticSpec spec;
  spec.num_rows = rows;
  spec.planted_fraction = 0.1;
  spec.seed = seed;
  const size_t themes = std::max<size_t>(1, cols / 16);
  for (size_t t = 0; t < themes; ++t) {
    spec.themes.push_back({"theme" + std::to_string(t), 4, 0.8,
                           t == 0 ? 1.5 : 0.0, 1.0, 0.0});
  }
  const size_t used = 1 + themes * 4;
  spec.num_noise_columns = cols > used ? cols - used : 0;
  return GenerateSynthetic(spec).ValueOrDie();
}

void RunPoint(ResultTable* table, JsonValue* points, size_t rows, size_t cols) {
  SyntheticDataset ds = MakeScaled(rows, cols, 7);
  const std::string query = ds.selection_predicate;
  ZiggyOptions opts;
  opts.cache_queries = false;
  std::optional<ZiggyEngine> engine;
  const double build_ms =
      TimeMs([&] { engine.emplace(ZiggyEngine::Create(std::move(ds.table), opts)
                                      .ValueOrDie()); });
  // Median-of-3 query latency.
  double best = 1e18;
  for (int i = 0; i < 3; ++i) {
    Result<Characterization> r = Status::Internal("unset");
    const double ms = TimeMs([&] { r = engine->CharacterizeQuery(query); });
    ZIGGY_CHECK(r.ok());
    best = std::min(best, ms);
  }
  table->AddRow({std::to_string(rows), std::to_string(cols), Fmt(build_ms, 4),
                 Fmt(best, 4)});
  if (points != nullptr) {
    points->Push(JsonValue::Object()
                     .Set("rows", static_cast<double>(rows))
                     .Set("cols", static_cast<double>(cols))
                     .Set("profile_ms", build_ms)
                     .Set("query_ms", best)
                     .Set("query_rows_per_sec", RowsPerSec(rows, best)));
  }
}

JsonValue RunKernelPoint(ResultTable* table, size_t rows) {
  SyntheticDataset ds = MakeScaled(rows, 16, 11);
  TableProfile profile = TableProfile::Compute(ds.table).ValueOrDie();
  const AccumulationAB ab = MeasureAccumulation(ds.table, profile, ds.planted);
  table->AddRow({std::to_string(rows), Fmt(ab.row_at_a_time_ms, 4),
                 Fmt(ab.columnar_ms, 4), Fmt(ab.threaded2_ms, 4),
                 Fmt(ab.threaded4_ms, 4), Fmt(ab.Speedup(), 2)});
  return JsonValue::Object()
      .Set("rows", static_cast<double>(rows))
      .Set("cols", static_cast<double>(ds.table.num_columns()))
      .Set("row_at_a_time_ms", ab.row_at_a_time_ms)
      .Set("columnar_ms", ab.columnar_ms)
      .Set("threaded2_ms", ab.threaded2_ms)
      .Set("threaded4_ms", ab.threaded4_ms)
      .Set("row_at_a_time_rows_per_sec", RowsPerSec(rows, ab.row_at_a_time_ms))
      .Set("columnar_rows_per_sec", RowsPerSec(rows, ab.columnar_ms))
      .Set("single_thread_speedup", ab.Speedup());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = JsonPathFromArgs(argc, argv, "BENCH_scaling.json");
  std::cout << "=== S1: scalability sweeps ===\n\n";

  std::cout << "Row sweep (64 columns):\n";
  JsonValue row_points = JsonValue::Array();
  ResultTable rows_table({"rows", "cols", "profile ms", "query ms"});
  for (size_t rows : {1000u, 2000u, 4000u, 8000u, 16000u, 32000u, 64000u}) {
    RunPoint(&rows_table, &row_points, rows, 64);
  }
  rows_table.Print();

  std::cout << "\nColumn sweep (4000 rows):\n";
  JsonValue col_points = JsonValue::Array();
  ResultTable cols_table({"rows", "cols", "profile ms", "query ms"});
  for (size_t cols : {16u, 32u, 64u, 128u, 256u, 512u}) {
    RunPoint(&cols_table, &col_points, 4000, cols);
  }
  cols_table.Print();

  std::cout << "\nAccumulation kernel sweep (16 columns, 10% selected, "
               "best of 3):\n";
  JsonValue kernel_points = JsonValue::Array();
  ResultTable kernel_table({"rows", "row-at-a-time ms", "columnar ms",
                            "2 threads ms", "4 threads ms", "speedup(1t)"});
  for (size_t rows : {250000u, 500000u, 1000000u}) {
    kernel_points.Push(RunKernelPoint(&kernel_table, rows));
  }
  kernel_table.Print();

  std::cout << "\nPaper shape: query latency grows gently with rows (one scan "
               "of the selection) and with columns; the pair-quadratic cost "
               "is paid once in the profile. The columnar blocked scan beats "
               "row-at-a-time accumulation by the kernel speedup column and "
               "scales near-linearly with threads on multi-core hardware.\n";

  if (!json_path.empty()) {
    JsonValue report;
    report.Set("bench", "scaling")
        .Set("row_sweep", std::move(row_points))
        .Set("col_sweep", std::move(col_points))
        .Set("accumulation_kernel", std::move(kernel_points));
    if (report.WriteFile(json_path)) {
      std::cout << "wrote " << json_path << "\n";
    }
  }
  return 0;
}
