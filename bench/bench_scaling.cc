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

void RunPoint(ResultTable* table, JsonWriter* points, size_t rows,
              size_t cols) {
  SyntheticDataset ds = MakeScaled(rows, cols, 7);
  const std::string query = ds.selection_predicate;
  std::optional<ZiggyEngine> engine;
  const double build_ms = TimeMs([&] {
    engine.emplace(ZiggyEngine::Create(std::move(ds.table)).ValueOrDie());
  });
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
  JsonWriter& w = *points;
  w.BeginObject().Key("rows").Uint(rows);
  w.Key("cols").Uint(cols);
  w.Key("profile_ms").Double(build_ms, kReportDigits);
  w.Key("query_ms").Double(best, kReportDigits);
  w.Key("query_rows_per_sec").Double(RowsPerSec(rows, best), kReportDigits);
  w.EndObject();
}

void RunKernelPoint(ResultTable* table, JsonWriter* points, size_t rows) {
  SyntheticDataset ds = MakeScaled(rows, 16, 11);
  TableProfile profile = TableProfile::Compute(ds.table).ValueOrDie();
  const AccumulationAB ab = MeasureAccumulation(ds.table, profile, ds.planted);
  table->AddRow({std::to_string(rows), Fmt(ab.row_at_a_time_ms, 4),
                 Fmt(ab.columnar_ms, 4), Fmt(ab.threaded2_ms, 4),
                 Fmt(ab.threaded4_ms, 4), Fmt(ab.Speedup(), 2)});
  JsonWriter& w = *points;
  w.BeginObject().Key("rows").Uint(rows);
  w.Key("cols").Uint(ds.table.num_columns());
  WriteAccumulation(ab, rows, &w);
  w.EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = JsonPathFromArgs(argc, argv, "BENCH_scaling.json");
  std::cout << "=== S1: scalability sweeps ===\n\n";

  JsonWriter report;
  report.BeginObject().Key("bench").String("scaling");

  std::cout << "Row sweep (64 columns):\n";
  report.Key("row_sweep").BeginArray();
  ResultTable rows_table({"rows", "cols", "profile ms", "query ms"});
  for (size_t rows : {1000u, 2000u, 4000u, 8000u, 16000u, 32000u, 64000u}) {
    RunPoint(&rows_table, &report, rows, 64);
  }
  report.EndArray();
  rows_table.Print();

  std::cout << "\nColumn sweep (4000 rows):\n";
  report.Key("col_sweep").BeginArray();
  ResultTable cols_table({"rows", "cols", "profile ms", "query ms"});
  for (size_t cols : {16u, 32u, 64u, 128u, 256u, 512u}) {
    RunPoint(&cols_table, &report, 4000, cols);
  }
  report.EndArray();
  cols_table.Print();

  std::cout << "\nAccumulation kernel sweep (16 columns, 10% selected, "
               "best of 3):\n";
  report.Key("accumulation_kernel").BeginArray();
  ResultTable kernel_table({"rows", "row-at-a-time ms", "columnar ms",
                            "2 threads ms", "4 threads ms", "speedup(1t)"});
  for (size_t rows : {250000u, 500000u, 1000000u}) {
    RunKernelPoint(&kernel_table, &report, rows);
  }
  report.EndArray().EndObject();
  kernel_table.Print();

  std::cout << "\nPaper shape: query latency grows gently with rows (one scan "
               "of the selection) and with columns; the pair-quadratic cost "
               "is paid once in the profile. The columnar blocked scan beats "
               "row-at-a-time accumulation by the kernel speedup column and "
               "scales near-linearly with threads on multi-core hardware.\n";

  if (!json_path.empty()) {
    if (WriteReport(json_path, report)) {
      std::cout << "wrote " << json_path << "\n";
    }
  }
  return 0;
}
