// Concurrent serving-layer benchmark (BENCH_serve.json).
//
// Measures what the ZiggyServer adds over a bare per-session engine:
//   A  baseline: every request pays its own scan (cache off, 1 session)
//   B  shared sketch cache, sequential: S sessions submit overlapping
//      workloads round-robin; repeated selections hit the cache
//   C  concurrent: the same load from S threads at once (concurrent cold
//      scans + striped locks in play)
//   D  refinement chains: each session drifts a predicate step by step;
//      near-miss XOR-delta patching replaces full scans
//   E  append: rows arrive mid-session; the append flushes the sketch
//      cache (old rows' midranks moved), so the sessions' next reads
//      scan cold and re-warm it
//
// Run: bench_serve [--json [path]]

#include <thread>

#include "bench_util.h"
#include "common/random.h"
#include "data/synthetic.h"
#include "serve/ziggy_server.h"

using namespace ziggy;
using bench::Fmt;

namespace {

constexpr size_t kSessions = 4;
constexpr size_t kDistinctQueries = 12;

SyntheticSpec BenchSpec() {
  SyntheticSpec spec;
  spec.num_rows = 20000;
  spec.planted_fraction = 0.15;
  spec.themes = {
      {"econ", 4, 0.8, 1.2, 1.0, 0.0},
      {"health", 4, 0.75, -0.9, 1.3, 0.2},
      {"edu", 3, 0.7, 0.8, 1.0, 0.0},
  };
  spec.num_noise_columns = 4;
  spec.num_categorical = 2;
  spec.num_shifted_categorical = 1;
  spec.seed = 1234;
  return spec;
}

ServeOptions BaseOptions() {
  ServeOptions options;
  options.engine.search.min_tightness = 0.3;
  options.engine.search.max_views = 8;
  return options;
}

double RunSequential(ZiggyServer* server, const std::vector<uint64_t>& sessions,
                     const std::vector<std::string>& queries, size_t* failures) {
  return bench::TimeMs([&] {
    for (const std::string& q : queries) {
      for (uint64_t sid : sessions) {
        if (!server->Characterize(sid, q).ok()) ++*failures;
      }
    }
  });
}

double RunConcurrent(ZiggyServer* server, const std::vector<uint64_t>& sessions,
                     const std::vector<std::string>& queries, size_t* failures) {
  std::vector<size_t> failed(sessions.size(), 0);
  const double ms = bench::TimeMs([&] {
    std::vector<std::thread> workers;
    workers.reserve(sessions.size());
    for (size_t s = 0; s < sessions.size(); ++s) {
      workers.emplace_back([&, s] {
        for (const std::string& q : queries) {
          if (!server->Characterize(sessions[s], q).ok()) ++failed[s];
        }
      });
    }
    for (auto& w : workers) w.join();
  });
  for (size_t f : failed) *failures += f;
  return ms;
}

std::vector<uint64_t> OpenSessions(ZiggyServer* server, size_t n) {
  std::vector<uint64_t> out;
  for (size_t i = 0; i < n; ++i) out.push_back(server->OpenSession());
  return out;
}

// Refinement chains: per session, a drifting threshold on one numeric
// column — consecutive selections differ in a thin value slice, the
// near-miss patcher's home turf.
std::vector<std::string> RefinementChain(const std::string& column, double lo,
                                         double step, size_t n) {
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(column + " > " + FormatDouble(lo + step * static_cast<double>(i), 6));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      bench::JsonPathFromArgs(argc, argv, "BENCH_serve.json");

  Result<SyntheticDataset> ds = GenerateSynthetic(BenchSpec());
  if (!ds.ok()) {
    std::cerr << "dataset generation failed: " << ds.status() << "\n";
    return 1;
  }
  const size_t num_rows = ds->table.num_rows();
  const size_t num_cols = ds->table.num_columns();
  std::cout << "serve bench: " << num_rows << " x " << num_cols << ", "
            << kSessions << " sessions\n\n";

  Rng rng(99);
  std::vector<std::string> workload =
      GenerateWorkload(ds->table, kDistinctQueries, &rng);
  size_t failures = 0;

  // ---- A: no sharing -------------------------------------------------------
  ServeOptions cold = BaseOptions();
  cold.cache_enabled = false;
  Result<std::unique_ptr<ZiggyServer>> server_a =
      ZiggyServer::Create(ds->table, cold);
  if (!server_a.ok()) {
    std::cerr << "server: " << server_a.status() << "\n";
    return 1;
  }
  const std::vector<uint64_t> one = OpenSessions(server_a->get(), 1);
  std::vector<uint64_t> ones(kSessions, one[0]);
  const double baseline_ms =
      RunSequential(server_a->get(), ones, workload, &failures);

  // ---- B: shared cache, sequential ----------------------------------------
  Result<std::unique_ptr<ZiggyServer>> server_b =
      ZiggyServer::Create(ds->table, BaseOptions());
  std::vector<uint64_t> sessions_b = OpenSessions(server_b->get(), kSessions);
  const double cached_ms =
      RunSequential(server_b->get(), sessions_b, workload, &failures);
  const ServeStats stats_b = (*server_b)->stats();

  // ---- C: shared cache, concurrent ----------------------------------------
  Result<std::unique_ptr<ZiggyServer>> server_c =
      ZiggyServer::Create(ds->table, BaseOptions());
  std::vector<uint64_t> sessions_c = OpenSessions(server_c->get(), kSessions);
  const double concurrent_ms =
      RunConcurrent(server_c->get(), sessions_c, workload, &failures);
  const ServeStats stats_c = (*server_c)->stats();

  // ---- D: refinement chains (near-miss patching) ---------------------------
  Result<std::unique_ptr<ZiggyServer>> server_d =
      ZiggyServer::Create(ds->table, BaseOptions());
  std::vector<uint64_t> sessions_d = OpenSessions(server_d->get(), kSessions);
  const std::string drift_col = ds->table.schema().field_names()[1];
  std::vector<std::string> chain = RefinementChain(drift_col, -0.5, 0.02, 16);
  double patch_ms = bench::TimeMs([&] {
    for (const std::string& q : chain) {
      for (uint64_t sid : sessions_d) {
        if (!(*server_d)->Characterize(sid, q).ok()) ++failures;
      }
    }
  });
  const ServeStats stats_d = (*server_d)->stats();

  // ---- E: append flush -----------------------------------------------------
  Result<std::unique_ptr<ZiggyServer>> server_e =
      ZiggyServer::Create(ds->table, BaseOptions());
  std::vector<uint64_t> sessions_e = OpenSessions(server_e->get(), 2);
  for (uint64_t sid : sessions_e) {
    for (size_t q = 0; q < 4; ++q) {
      if (!(*server_e)->Characterize(sid, workload[q]).ok()) ++failures;
    }
  }
  // Appended rows are drawn from the same table (re-sampled), so ranges and
  // category sets stay put: the profile updates without re-binning, and
  // the sketch cache is flushed all the same.
  Rng append_rng(7);
  Table tail = ds->table.SampleRows(num_rows / 50, &append_rng);
  double append_ms = bench::TimeMs([&] {
    const Status st = (*server_e)->Append(tail);
    if (!st.ok()) ++failures;
  });
  double post_append_ms = bench::TimeMs([&] {
    for (uint64_t sid : sessions_e) {
      for (size_t q = 0; q < 4; ++q) {
        if (!(*server_e)->Characterize(sid, workload[q]).ok()) ++failures;
      }
    }
  });
  const ServeStats stats_e = (*server_e)->stats();

  // ---- report --------------------------------------------------------------
  const size_t total_requests = workload.size() * kSessions;
  bench::ResultTable table(
      {"phase", "ms", "req/s", "exact", "patched", "misses"});
  auto row = [&](const std::string& name, double ms, size_t requests,
                 const ServeStats& st) {
    table.AddRow({name, Fmt(ms, 1), Fmt(bench::RowsPerSec(requests, ms), 1),
                  std::to_string(st.sketch_exact_hits),
                  std::to_string(st.sketch_patched_hits),
                  std::to_string(st.sketch_misses)});
  };
  table.AddRow({"A:no-sharing", Fmt(baseline_ms, 1),
                Fmt(bench::RowsPerSec(total_requests, baseline_ms), 1), "-", "-",
                "-"});
  row("B:cached-seq", cached_ms, total_requests, stats_b);
  row("C:cached-conc", concurrent_ms, total_requests, stats_c);
  row("D:refine-chains", patch_ms, chain.size() * kSessions, stats_d);
  row("E:append", append_ms + post_append_ms, 16, stats_e);
  table.Print();
  std::cout << "\nappend: " << append_ms << " ms for " << tail.num_rows()
            << " rows (profile delta update + " << stats_e.cache_flushes
            << " sketch cache flush)\n";
  if (failures > 0) std::cout << failures << " request failures\n";

  if (!json_path.empty()) {
    constexpr int kDigits = bench::kReportDigits;
    JsonWriter w;
    w.BeginObject().Key("bench").String("serve");
    w.Key("config").BeginObject();
    w.Key("rows").Uint(num_rows);
    w.Key("cols").Uint(num_cols);
    w.Key("sessions").Uint(kSessions);
    w.Key("distinct_queries").Uint(workload.size());
    w.Key("requests_per_phase").Uint(total_requests).EndObject();

    auto phase = [&w](const char* key, double ms, size_t requests,
                      const ServeStats* st) {
      w.Key(key).BeginObject();
      w.Key("ms").Double(ms, kDigits);
      w.Key("requests").Uint(requests);
      w.Key("requests_per_sec");
      w.Double(bench::RowsPerSec(requests, ms), kDigits);
      if (st != nullptr) {
        w.Key("sketch_exact_hits").Uint(st->sketch_exact_hits);
        w.Key("sketch_patched_hits").Uint(st->sketch_patched_hits);
        w.Key("sketch_misses").Uint(st->sketch_misses);
        w.Key("patched_delta_rows").Uint(st->patched_delta_rows);
        w.Key("cache_entries").Uint(st->cache.entries);
        w.Key("cache_evictions").Uint(st->cache.evictions);
      }
      w.EndObject();
    };
    phase("no_sharing", baseline_ms, total_requests, nullptr);
    phase("cached_sequential", cached_ms, total_requests, &stats_b);
    phase("cached_concurrent", concurrent_ms, total_requests, &stats_c);
    phase("refinement_chains", patch_ms, chain.size() * kSessions, &stats_d);
    w.Key("append").BeginObject();
    w.Key("append_ms").Double(append_ms, kDigits);
    w.Key("appended_rows").Uint(tail.num_rows());
    w.Key("post_append_requests_ms").Double(post_append_ms, kDigits);
    w.Key("cache_flushes").Uint(stats_e.cache_flushes);
    w.Key("sketch_exact_hits").Uint(stats_e.sketch_exact_hits);
    w.Key("sketch_patched_hits").Uint(stats_e.sketch_patched_hits).EndObject();
    w.Key("speedup_cached_vs_baseline");
    w.Double(cached_ms > 0.0 ? baseline_ms / cached_ms : 0.0, kDigits);
    w.Key("failures").Uint(failures).EndObject();
    if (bench::WriteReport(json_path, w)) {
      std::cout << "wrote " << json_path << "\n";
    }
  }
  return failures == 0 ? 0 : 1;
}
