// bench_store: cold CSV boot vs warm store boot.
//
// For each fixture (boxoffice 900x12, crime 1994x128) the harness:
//   1. writes the dataset out as CSV (what a cold daemon would be pointed
//      at),
//   2. cold boot: ReadCsvFile + ZiggyServer::Create (CSV parse, type
//      inference, full TableProfile::Compute) and times the first
//      CHARACTERIZE (a full selection scan),
//   3. checkpoints the server into a ZiggyStore (table + profile),
//   4. warm boot: ZiggyStore::LoadTable + CreateFromState, and times the
//      first CHARACTERIZE again. The sketch cache is not persisted, so
//      that query is a full scan on the warm server too; the boot itself
//      skips CSV parsing and the profile computation.
// It verifies the warm server's report is byte-identical to the cold one
// before reporting any number, and prints boot wall-clock, first-query
// latency, and the speedup. The acceptance bar (ISSUE 4): warm boot at
// least 5x faster than cold on the largest fixture.
//
// A byte-identity failure always exits 1. The wall-clock ratio is
// recorded in the JSON (largest_fixture_speedup_ok) and only fails the
// exit code under --enforce-speedup, so a scheduling blip on a shared CI
// runner cannot flake the bench job while local/perf-tracking runs can
// still gate on it.
//
// Append-checkpoint scenario (ISSUE 5): on the crime fixture, a server
// appends small batches and checkpoints each one into two stores — one
// with the delta path enabled, one forced to full rewrites — and the
// harness compares the table-data bytes each strategy wrote. The
// acceptance bar, checkpoint-on-append I/O scaling with the delta size
// rather than the table size (>= 5x less than full rewrites), is a
// deterministic byte count, so it always gates the exit code; the
// delta-chained store must also warm-load byte-identically.
//
// Compression scenario (ISSUE 7): the quantized boxoffice/crime fixtures
// (3 decimals — what a real ingest of currency/count data looks like)
// are checkpointed into a store; the harness compares the table-data
// bytes it wrote (counting the shared dictionary pool against it) with
// the store's raw-byte counter — the exact size of the same checkpoint
// in the uncompressed v1 encoding (StoreStats::checkpoint_raw_bytes,
// pinned by table_io_test) — and requires >= 2x reduction, with a warm
// boot from the store rendering the first report byte-identically to
// the cold CSV boot. Deterministic byte counts, so it always gates.
//
// Usage: bench_store [--threads n] [--enforce-speedup] [--json [path]]

#include <stdlib.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "engine/report.h"
#include "persist/store.h"
#include "serve/ziggy_server.h"
#include "storage/csv.h"
#include "storage/table_io.h"

using namespace ziggy;

namespace {

struct FixtureResult {
  std::string name;
  size_t rows = 0;
  size_t columns = 0;
  double cold_boot_ms = 0.0;
  double warm_boot_ms = 0.0;       ///< best (min) of the 3 reps
  double warm_boot_p50_ms = 0.0;   ///< median of the 3 reps
  double cold_first_query_ms = 0.0;
  double warm_first_query_ms = 0.0;
  bool reports_match = false;

  double boot_speedup() const {
    return warm_boot_ms > 0.0 ? cold_boot_ms / warm_boot_ms : 0.0;
  }
};

ServeOptions BenchServeOptions(size_t threads) {
  ServeOptions options;
  options.engine.search.min_tightness = 0.4;
  options.engine.search.max_views = 10;
  options.scan_threads = threads;
  options.engine.build.num_threads = threads;
  options.engine.profile.num_threads = threads;
  return options;
}

FixtureResult RunFixture(const std::string& name, SyntheticDataset ds,
                         const std::string& work_dir, size_t threads) {
  FixtureResult r;
  r.name = name;
  r.rows = ds.table.num_rows();
  r.columns = ds.table.num_columns();
  const std::string csv_path = work_dir + "/" + name + ".csv";
  const std::string store_dir = work_dir + "/" + name + ".store";
  const std::string query = ds.selection_predicate;

  if (!WriteCsvFile(ds.table, csv_path).ok()) {
    std::cerr << "error: cannot write " << csv_path << "\n";
    return r;
  }

  // ---- cold boot: CSV -> profile -> serving ----
  std::unique_ptr<ZiggyServer> cold;
  r.cold_boot_ms = bench::TimeMs([&] {
    Result<Table> table = ReadCsvFile(csv_path);
    if (!table.ok()) return;
    Result<std::unique_ptr<ZiggyServer>> server =
        ZiggyServer::Create(std::move(*table), BenchServeOptions(threads));
    if (server.ok()) cold = std::move(*server);
  });
  if (cold == nullptr) {
    std::cerr << "error: cold boot failed for " << name << "\n";
    return r;
  }
  const uint64_t cold_sid = cold->OpenSession();
  std::string cold_report;
  const Schema& schema = cold->state()->table().schema();
  r.cold_first_query_ms = bench::TimeMs([&] {
    Result<Characterization> result = cold->Characterize(cold_sid, query);
    if (result.ok()) {
      cold_report = RenderCharacterizationReport(*result, schema);
    }
  });

  // ---- checkpoint ----
  Result<std::unique_ptr<ZiggyStore>> store = ZiggyStore::Open(store_dir);
  if (!store.ok() ||
      !(*store)
           ->SaveTable(name, cold->state()->table(),
                       cold->state()->generation(), *cold->state()->profile)
           .ok()) {
    std::cerr << "error: checkpoint failed for " << name << "\n";
    return r;
  }

  // ---- warm boot: store -> serving (best of 3: the measurement is a
  // few milliseconds, so one scheduling hiccup on a shared runner would
  // otherwise dominate the speedup ratio) ----
  std::unique_ptr<ZiggyServer> warm;
  obs::Histogram warm_boot_us;
  for (int rep = 0; rep < 3; ++rep) {
    const double ms = bench::TimeMs([&] {
      Result<StoredTable> stored = (*store)->LoadTable(name);
      if (!stored.ok()) return;
      Result<std::unique_ptr<ZiggyServer>> server =
          ZiggyServer::CreateFromState(
              std::move(stored->table), stored->generation,
              std::move(stored->profile), BenchServeOptions(threads));
      if (!server.ok()) return;
      warm = std::move(*server);
    });
    warm_boot_us.Record(static_cast<uint64_t>(ms * 1000.0));
  }
  const obs::Histogram::Snapshot warm_snap = warm_boot_us.TakeSnapshot();
  r.warm_boot_ms = static_cast<double>(warm_snap.min) / 1000.0;
  r.warm_boot_p50_ms =
      static_cast<double>(warm_snap.Percentile(0.50)) / 1000.0;
  if (warm == nullptr) {
    std::cerr << "error: warm boot failed for " << name << "\n";
    return r;
  }
  const uint64_t warm_sid = warm->OpenSession();
  std::string warm_report;
  r.warm_first_query_ms = bench::TimeMs([&] {
    Result<Characterization> result = warm->Characterize(warm_sid, query);
    if (result.ok()) {
      warm_report = RenderCharacterizationReport(*result, schema);
    }
  });
  r.reports_match = !cold_report.empty() && cold_report == warm_report;
  return r;
}

struct AppendIoResult {
  size_t batches = 0;
  size_t batch_rows = 0;
  uint64_t delta_bytes = 0;       ///< table-data bytes, delta-chained store
  uint64_t full_bytes = 0;        ///< table-data bytes, full-rewrite store
  uint64_t delta_checkpoints = 0;
  uint64_t compactions = 0;
  bool replay_matches = false;    ///< warm load of the chain == live table

  double io_ratio() const {
    return delta_bytes > 0
               ? static_cast<double>(full_bytes) /
                     static_cast<double>(delta_bytes)
               : 0.0;
  }
};

std::string TableImage(const Table& table) {
  std::ostringstream out(std::ios::binary);
  (void)WriteTable(table, &out);
  return out.str();
}

/// First `n` rows of `table` (the append batches).
Table HeadRows(const Table& table, size_t n) {
  Selection head(table.num_rows());
  for (size_t i = 0; i < n && i < table.num_rows(); ++i) head.Set(i);
  return table.Filter(head);
}

AppendIoResult RunAppendIoScenario(const std::string& work_dir) {
  constexpr size_t kBatches = 8;
  constexpr size_t kBatchRows = 64;
  constexpr uint64_t kLineage = 1;
  AppendIoResult r;
  r.batches = kBatches;
  r.batch_rows = kBatchRows;

  SyntheticDataset ds = MakeCrimeDataset(11).ValueOrDie();
  SyntheticDataset extra = MakeCrimeDataset(17).ValueOrDie();
  const Table batch = HeadRows(extra.table, kBatchRows);

  auto delta_store = ZiggyStore::Open(work_dir + "/append_delta").ValueOrDie();
  StoreOptions no_delta;
  no_delta.max_delta_chain = 0;  // every checkpoint is a full rewrite
  auto full_store =
      ZiggyStore::Open(work_dir + "/append_full", no_delta).ValueOrDie();

  Table live = ds.table;
  TableProfile profile = TableProfile::Compute(live).ValueOrDie();
  if (!delta_store->SaveTable("crime", live, 0, profile, kLineage).ok() ||
      !full_store->SaveTable("crime", live, 0, profile, kLineage).ok()) {
    std::cerr << "error: append scenario base checkpoint failed\n";
    return r;
  }
  const uint64_t delta_base = delta_store->stats().checkpoint_bytes;
  const uint64_t full_base = full_store->stats().checkpoint_bytes;

  for (size_t g = 1; g <= kBatches; ++g) {
    live = live.WithAppendedRows(batch).ValueOrDie();
    profile = TableProfile::Compute(live).ValueOrDie();
    if (!delta_store->SaveTable("crime", live, g, profile, kLineage)
             .ok() ||
        !full_store->SaveTable("crime", live, g, profile, kLineage).ok()) {
      std::cerr << "error: append scenario checkpoint " << g << " failed\n";
      return r;
    }
  }
  // Count only the post-base append checkpoints: that is the per-append
  // cost a serving daemon pays, the thing the delta path makes O(delta).
  r.delta_bytes = delta_store->stats().checkpoint_bytes - delta_base;
  r.full_bytes = full_store->stats().checkpoint_bytes - full_base;
  r.delta_checkpoints = delta_store->stats().delta_checkpoints;
  r.compactions = delta_store->stats().compactions;

  Result<StoredTable> replayed = delta_store->LoadTable("crime");
  r.replay_matches =
      replayed.ok() && TableImage(replayed->table) == TableImage(live);
  return r;
}

struct CompressionResult {
  std::string name;
  size_t rows = 0;
  size_t columns = 0;
  uint64_t plain_bytes = 0;       ///< the same checkpoint in raw v1 bytes
  uint64_t compressed_bytes = 0;  ///< table-data bytes written
  uint64_t dict_pool_bytes = 0;   ///< shared dictionary files, on-store
  bool reports_match = false;  ///< warm boot == cold CSV boot

  /// On-disk reduction counting the pooled dictionaries against the
  /// compressed store (they live on the same disk).
  double ratio() const {
    const uint64_t on_disk = compressed_bytes + dict_pool_bytes;
    return on_disk > 0 ? static_cast<double>(plain_bytes) /
                             static_cast<double>(on_disk)
                       : 0.0;
  }
};

/// Compression scenario: checkpoint a quantized fixture, compare
/// the table-data bytes written (ZIGTBL02 + dict pool) with their raw v1
/// size, and verify that a warm boot from the store renders the first
/// CHARACTERIZE report byte-identically to the cold CSV boot. Byte counts
/// are deterministic, so the >= 2x bar always gates the exit code.
CompressionResult RunCompressionScenario(const std::string& name,
                                         SyntheticDataset ds,
                                         const std::string& work_dir,
                                         size_t threads) {
  CompressionResult r;
  r.name = name;
  r.rows = ds.table.num_rows();
  r.columns = ds.table.num_columns();
  const std::string csv_path = work_dir + "/" + name + "_z.csv";
  const std::string query = ds.selection_predicate;

  // Cold CSV boot: the report every warm boot must reproduce.
  if (!WriteCsvFile(ds.table, csv_path).ok()) return r;
  Result<Table> csv_table = ReadCsvFile(csv_path);
  if (!csv_table.ok()) return r;
  Result<std::unique_ptr<ZiggyServer>> cold =
      ZiggyServer::Create(std::move(*csv_table), BenchServeOptions(threads));
  if (!cold.ok()) return r;
  const Schema& schema = (*cold)->state()->table().schema();
  Result<Characterization> cold_result =
      (*cold)->Characterize((*cold)->OpenSession(), query);
  if (!cold_result.ok()) return r;
  const std::string cold_report =
      RenderCharacterizationReport(*cold_result, schema);

  auto store = ZiggyStore::Open(work_dir + "/" + name + "_z").ValueOrDie();
  if (!store
           ->SaveTable(name, (*cold)->state()->table(),
                       (*cold)->state()->generation(),
                       *(*cold)->state()->profile)
           .ok()) {
    return r;
  }
  const StoreStats stats = store->stats();
  r.plain_bytes = stats.checkpoint_raw_bytes;
  r.compressed_bytes = stats.checkpoint_bytes;
  r.dict_pool_bytes = stats.dict_pool_bytes;

  // A warm boot from the store must render the cold report verbatim.
  Result<StoredTable> stored = store->LoadTable(name);
  if (!stored.ok()) return r;
  Result<std::unique_ptr<ZiggyServer>> warm = ZiggyServer::CreateFromState(
      std::move(stored->table), stored->generation,
      std::move(stored->profile), BenchServeOptions(threads));
  if (!warm.ok()) return r;
  Result<Characterization> result =
      (*warm)->Characterize((*warm)->OpenSession(), query);
  if (!result.ok()) return r;
  r.reports_match =
      RenderCharacterizationReport(*result, schema) == cold_report;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  size_t threads = 1;
  bool enforce_speedup = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      Result<int64_t> v = ParseInt(argv[++i]);
      if (!v.ok() || *v < 1) return 2;
      threads = static_cast<size_t>(*v);
    } else if (arg == "--enforce-speedup") {
      enforce_speedup = true;
    } else if (arg == "--json") {
      if (i + 1 < argc && argv[i + 1][0] != '-') ++i;  // consumed below
    } else {
      std::cerr << "usage: bench_store [--threads n] [--enforce-speedup] "
                   "[--json [path]]\n";
      return 2;
    }
  }

  // A fresh directory per run, removed at exit, so concurrent runs do not
  // share (and wipe) one store.
  std::string work_dir =
      (std::filesystem::temp_directory_path() / "ziggy_bench_store.XXXXXX")
          .string();
  if (mkdtemp(work_dir.data()) == nullptr) {
    std::cerr << "bench_store: cannot create a work directory under "
              << std::filesystem::temp_directory_path() << ": "
              << std::strerror(errno) << "\n";
    return 1;
  }
  std::error_code ec;

  std::vector<FixtureResult> results;
  results.push_back(RunFixture(
      "boxoffice", MakeBoxOfficeDataset(7).ValueOrDie(), work_dir, threads));
  results.push_back(RunFixture("crime", MakeCrimeDataset(11).ValueOrDie(),
                               work_dir, threads));

  bench::ResultTable table({"fixture", "rows", "cols", "cold boot ms",
                            "warm boot ms", "speedup", "cold 1st query ms",
                            "warm 1st query ms", "match"});
  for (const FixtureResult& r : results) {
    table.AddRow({r.name, std::to_string(r.rows), std::to_string(r.columns),
                  bench::Fmt(r.cold_boot_ms), bench::Fmt(r.warm_boot_ms),
                  bench::Fmt(r.boot_speedup()) + "x",
                  bench::Fmt(r.cold_first_query_ms),
                  bench::Fmt(r.warm_first_query_ms),
                  r.reports_match ? "yes" : "NO"});
  }
  table.Print();

  // ---- compression scenario (quantized fixtures) ----
  std::vector<CompressionResult> compression;
  compression.push_back(RunCompressionScenario(
      "boxoffice", MakeBoxOfficeDataset(7, /*value_decimals=*/3).ValueOrDie(),
      work_dir, threads));
  compression.push_back(RunCompressionScenario(
      "crime", MakeCrimeDataset(11, /*value_decimals=*/3).ValueOrDie(),
      work_dir, threads));
  {
    bench::ResultTable z_table({"fixture", "raw v1 KiB", "compressed KiB",
                                "dict pool KiB", "ratio", "match"});
    for (const CompressionResult& z : compression) {
      z_table.AddRow(
          {z.name,
           bench::Fmt(static_cast<double>(z.plain_bytes) / 1024.0),
           bench::Fmt(static_cast<double>(z.compressed_bytes) / 1024.0),
           bench::Fmt(static_cast<double>(z.dict_pool_bytes) / 1024.0),
           bench::Fmt(z.ratio()) + "x", z.reports_match ? "yes" : "NO"});
    }
    std::cout << "\n";
    z_table.Print();
  }

  // ---- append-checkpoint I/O scenario (crime fixture) ----
  const AppendIoResult append_io = RunAppendIoScenario(work_dir);
  {
    bench::ResultTable io_table({"scenario", "batches", "rows/batch",
                                 "delta KiB", "full-rewrite KiB", "ratio",
                                 "deltas", "compactions", "replay"});
    io_table.AddRow(
        {"crime append", std::to_string(append_io.batches),
         std::to_string(append_io.batch_rows),
         bench::Fmt(static_cast<double>(append_io.delta_bytes) / 1024.0),
         bench::Fmt(static_cast<double>(append_io.full_bytes) / 1024.0),
         bench::Fmt(append_io.io_ratio()) + "x",
         std::to_string(append_io.delta_checkpoints),
         std::to_string(append_io.compactions),
         append_io.replay_matches ? "yes" : "NO"});
    std::cout << "\n";
    io_table.Print();
  }

  bool ok = true;
  for (const FixtureResult& r : results) {
    if (!r.reports_match) {
      std::cerr << "FAIL: " << r.name
                << ": warm report is not byte-identical to cold\n";
      ok = false;
    }
  }
  // Acceptance (ISSUE 5): checkpoint-on-append writes bytes proportional
  // to the delta, not the table — >= 5x less I/O than full rewrites.
  // Byte counts are deterministic, so this always gates the exit code.
  if (!append_io.replay_matches) {
    std::cerr << "FAIL: delta-chained store does not replay the live table "
                 "byte-identically\n";
    ok = false;
  }
  if (append_io.io_ratio() < 5.0) {
    std::cerr << "FAIL: append-checkpoint I/O ratio is "
              << bench::Fmt(append_io.io_ratio()) << "x (< 5x)\n";
    ok = false;
  }
  // Acceptance (ISSUE 7): compressed checkpoints cut on-disk table bytes
  // by >= 2x on quantized fixtures, and warm boots from both modes must
  // reproduce the cold CSV report byte-identically. Deterministic byte
  // counts, so both always gate the exit code.
  for (const CompressionResult& z : compression) {
    if (!z.reports_match) {
      std::cerr << "FAIL: " << z.name
                << ": warm report from the store is not byte-identical to "
                   "the cold CSV boot\n";
      ok = false;
    }
    if (z.ratio() < 2.0) {
      std::cerr << "FAIL: " << z.name << ": compression ratio is "
                << bench::Fmt(z.ratio()) << "x (< 2x)\n";
      ok = false;
    }
  }
  // Acceptance: >= 5x warm-boot speedup on the largest fixture.
  const FixtureResult& largest = results.back();
  if (largest.boot_speedup() < 5.0) {
    std::cerr << (enforce_speedup ? "FAIL" : "WARN")
              << ": warm boot speedup on " << largest.name << " is "
              << bench::Fmt(largest.boot_speedup()) << "x (< 5x)\n";
    if (enforce_speedup) ok = false;
  }

  const std::string json_path =
      bench::JsonPathFromArgs(argc, argv, "BENCH_store.json");
  if (!json_path.empty()) {
    constexpr int kDigits = bench::kReportDigits;
    JsonWriter w;
    w.BeginObject().Key("bench").String("store");
    w.Key("threads").Uint(threads);
    w.Key("fixtures").BeginArray();
    for (const FixtureResult& r : results) {
      w.BeginObject().Key("fixture").String(r.name);
      w.Key("rows").Uint(r.rows);
      w.Key("columns").Uint(r.columns);
      w.Key("cold_boot_ms").Double(r.cold_boot_ms, kDigits);
      w.Key("warm_boot_ms").Double(r.warm_boot_ms, kDigits);
      w.Key("warm_boot_p50_ms").Double(r.warm_boot_p50_ms, kDigits);
      w.Key("boot_speedup").Double(r.boot_speedup(), kDigits);
      w.Key("cold_first_query_ms").Double(r.cold_first_query_ms, kDigits);
      w.Key("warm_first_query_ms").Double(r.warm_first_query_ms, kDigits);
      w.Key("reports_byte_identical").Bool(r.reports_match).EndObject();
    }
    w.EndArray();
    w.Key("largest_fixture_speedup_ok").Bool(largest.boot_speedup() >= 5.0);
    w.Key("append_checkpoint").BeginObject();
    w.Key("fixture").String("crime");
    w.Key("batches").Uint(append_io.batches);
    w.Key("batch_rows").Uint(append_io.batch_rows);
    w.Key("delta_checkpoint_bytes").Uint(append_io.delta_bytes);
    w.Key("full_rewrite_bytes").Uint(append_io.full_bytes);
    w.Key("io_ratio").Double(append_io.io_ratio(), kDigits);
    w.Key("delta_checkpoints").Uint(append_io.delta_checkpoints);
    w.Key("compactions").Uint(append_io.compactions);
    w.Key("replay_byte_identical").Bool(append_io.replay_matches);
    w.Key("io_ratio_ok").Bool(append_io.io_ratio() >= 5.0).EndObject();
    w.Key("compression").BeginArray();
    for (const CompressionResult& z : compression) {
      w.BeginObject().Key("fixture").String(z.name);
      w.Key("rows").Uint(z.rows);
      w.Key("columns").Uint(z.columns);
      w.Key("plain_bytes").Uint(z.plain_bytes);
      w.Key("compressed_bytes").Uint(z.compressed_bytes);
      w.Key("dict_pool_bytes").Uint(z.dict_pool_bytes);
      w.Key("ratio").Double(z.ratio(), kDigits);
      w.Key("reports_byte_identical").Bool(z.reports_match);
      w.Key("ratio_ok").Bool(z.ratio() >= 2.0).EndObject();
    }
    w.EndArray().EndObject();
    bench::WriteReport(json_path, w);
    std::cout << "\nwrote " << json_path << "\n";
  }

  std::filesystem::remove_all(work_dir, ec);
  return ok ? 0 : 1;
}
