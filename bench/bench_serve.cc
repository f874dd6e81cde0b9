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
  // Per-session component caches would absorb the repeats we want the
  // *shared* sketch cache to serve; keep them on anyway (realistic), the
  // sessions never repeat their own queries in this harness.
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
  cold.engine.cache_queries = false;
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
    bench::JsonValue root;
    root.Set("bench", "serve");
    bench::JsonValue config;
    config.Set("rows", static_cast<double>(num_rows))
        .Set("cols", static_cast<double>(num_cols))
        .Set("sessions", static_cast<double>(kSessions))
        .Set("distinct_queries", static_cast<double>(workload.size()))
        .Set("requests_per_phase", static_cast<double>(total_requests));
    root.Set("config", std::move(config));

    auto phase = [](double ms, size_t requests, const ServeStats& st) {
      bench::JsonValue p;
      p.Set("ms", ms)
          .Set("requests", static_cast<double>(requests))
          .Set("requests_per_sec", bench::RowsPerSec(requests, ms))
          .Set("sketch_exact_hits", static_cast<double>(st.sketch_exact_hits))
          .Set("sketch_patched_hits", static_cast<double>(st.sketch_patched_hits))
          .Set("sketch_misses", static_cast<double>(st.sketch_misses))
          .Set("patched_delta_rows", static_cast<double>(st.patched_delta_rows))
          .Set("cache_entries", static_cast<double>(st.cache.entries))
          .Set("cache_evictions", static_cast<double>(st.cache.evictions));
      return p;
    };
    bench::JsonValue a;
    a.Set("ms", baseline_ms)
        .Set("requests", static_cast<double>(total_requests))
        .Set("requests_per_sec", bench::RowsPerSec(total_requests, baseline_ms));
    root.Set("no_sharing", std::move(a));
    root.Set("cached_sequential", phase(cached_ms, total_requests, stats_b));
    root.Set("cached_concurrent", phase(concurrent_ms, total_requests, stats_c));
    root.Set("refinement_chains",
             phase(patch_ms, chain.size() * kSessions, stats_d));
    bench::JsonValue append;
    append.Set("append_ms", append_ms)
        .Set("appended_rows", static_cast<double>(tail.num_rows()))
        .Set("post_append_requests_ms", post_append_ms)
        .Set("cache_flushes", static_cast<double>(stats_e.cache_flushes))
        .Set("sketch_exact_hits", static_cast<double>(stats_e.sketch_exact_hits))
        .Set("sketch_patched_hits",
             static_cast<double>(stats_e.sketch_patched_hits));
    root.Set("append", std::move(append));
    root.Set("speedup_cached_vs_baseline",
             cached_ms > 0.0 ? baseline_ms / cached_ms : 0.0);
    root.Set("failures", static_cast<double>(failures));
    if (root.WriteFile(json_path)) {
      std::cout << "wrote " << json_path << "\n";
    }
  }
  return failures == 0 ? 0 : 1;
}
