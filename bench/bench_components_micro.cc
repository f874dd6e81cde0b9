// Experiment P1 — google-benchmark micro-costs of Ziggy's primitives:
// component construction, profile build, clustering, scoring, parsing.
// These are the constants behind every end-to-end number in the other
// harnesses.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <bit>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <vector>

#include "baselines/subspace_search.h"
#include "bench_util.h"
#include "common/checksum.h"
#include "common/random.h"
#include "data/synthetic.h"
#include "query/parser.h"
#include "storage/csv.h"
#include "two_scan_reference.h"
#include "views/clustering.h"
#include "views/view_search.h"
#include "zig/component_builder.h"
#include "zig/selection_sketches.h"

namespace ziggy {
namespace {

SyntheticDataset MakeBenchDataset(size_t rows, size_t cols) {
  SyntheticSpec spec;
  spec.num_rows = rows;
  spec.planted_fraction = 0.1;
  spec.seed = 5;
  const size_t themes = std::max<size_t>(1, cols / 8);
  for (size_t t = 0; t < themes; ++t) {
    spec.themes.push_back(
        {"t" + std::to_string(t), 4, 0.8, t == 0 ? 1.0 : 0.0, 1.0, 0.0});
  }
  const size_t used = 1 + 4 * themes;
  spec.num_noise_columns = cols > used ? cols - used : 0;
  return GenerateSynthetic(spec).ValueOrDie();
}

void BM_ProfileBuild(benchmark::State& state) {
  SyntheticDataset ds = MakeBenchDataset(static_cast<size_t>(state.range(0)),
                                         static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(TableProfile::Compute(ds.table).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * state.range(1));
}
// {6823, 512} is OECD-shaped: the numeric pair moments dominate.
BENCHMARK(BM_ProfileBuild)
    ->Args({2000, 32})
    ->Args({2000, 128})
    ->Args({8000, 32})
    ->Args({6823, 512})
    ->Unit(benchmark::kMillisecond);

// Cold-OPEN CSV parse of the OECD analogue written as CSV (~70 MB, 6823
// x 519): split, type inference and number parsing.
void BM_ReadCsvWide(benchmark::State& state) {
  static const std::string* csv =
      new std::string(WriteCsvString(MakeOecdDataset().ValueOrDie().table));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReadCsvString(*csv).ValueOrDie());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(csv->size()));
}
BENCHMARK(BM_ReadCsvWide)->Unit(benchmark::kMillisecond);

// The same CSV through ReadCsvFile, as OPEN and `ziggy_cli import` read
// it: the file read into memory, then the parse. The file is written once
// to the temp directory and removed at exit.
void BM_ReadCsvFileWide(benchmark::State& state) {
  struct TempCsv {
    TempCsv()
        : path((std::filesystem::temp_directory_path() /
                ("ziggy_bench_oecd_" + std::to_string(getpid()) + ".csv"))
                   .string()) {
      const Table table = MakeOecdDataset().ValueOrDie().table;
      bytes = static_cast<int64_t>(WriteCsvString(table).size());
      if (!WriteCsvFile(table, path).ok()) std::abort();
    }
    ~TempCsv() { std::filesystem::remove(path); }
    std::string path;
    int64_t bytes = 0;
  };
  static const TempCsv csv;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReadCsvFile(csv.path).ValueOrDie());
  }
  state.SetBytesProcessed(state.iterations() * csv.bytes);
}
BENCHMARK(BM_ReadCsvFileWide)->Unit(benchmark::kMillisecond);

// CRC-32 over 1 MiB: the per-section integrity check of every store load.
void BM_Crc32(benchmark::State& state) {
  std::string bytes(size_t{1} << 20, '\0');
  Rng rng(9);
  for (char& c : bytes) c = static_cast<char>(rng.UniformInt(0, 255));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(bytes));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32);

void BM_BuildComponentsShared(benchmark::State& state) {
  SyntheticDataset ds = MakeBenchDataset(static_cast<size_t>(state.range(0)),
                                         static_cast<size_t>(state.range(1)));
  TableProfile profile = TableProfile::Compute(ds.table).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildComponents(ds.table, profile, ds.planted).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildComponentsShared)
    ->Args({2000, 32})
    ->Args({2000, 128})
    ->Args({8000, 32});

void BM_BuildComponentsTwoScan(benchmark::State& state) {
  SyntheticDataset ds = MakeBenchDataset(static_cast<size_t>(state.range(0)),
                                         static_cast<size_t>(state.range(1)));
  TableProfile profile = TableProfile::Compute(ds.table).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildComponentsTwoScan(ds.table, profile, ds.planted)
            .ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildComponentsTwoScan)
    ->Args({2000, 32})
    ->Args({2000, 128})
    ->Args({8000, 32});

// The selection scan alone on the OECD analogue (6823 x 519) at 5%, 20%
// and 50% density, on 1 thread and column-partitioned over 4. The last 32
// results stay alive, as in the sketch cache, so any memory a result
// holds on to (and the page faults of allocating it afresh) shows in the
// timing.
void BM_SelectionScanWide(benchmark::State& state) {
  static const SyntheticDataset* ds =
      new SyntheticDataset(MakeOecdDataset().ValueOrDie());
  static const TableProfile* profile =
      new TableProfile(TableProfile::Compute(ds->table).ValueOrDie());
  const size_t n = ds->table.num_rows();
  Selection selection(n);
  Rng rng(17);
  for (size_t r = 0; r < n; ++r) {
    if (rng.Bernoulli(static_cast<double>(state.range(0)) / 100.0)) {
      selection.Set(r);
    }
  }
  std::vector<SelectionSketches> kept(32);
  size_t next = 0;
  for (auto _ : state) {
    kept[next] = SelectionSketches::Build(
        ds->table, *profile, selection, static_cast<size_t>(state.range(1)));
    next = (next + 1) % kept.size();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(selection.Count()));
}
BENCHMARK(BM_SelectionScanWide)
    ->ArgNames({"density_pct", "threads"})
    ->ArgsProduct({{5, 20, 50}, {1, 4}})
    ->Unit(benchmark::kMillisecond);

// One sketch-reuse step on the crime (1994 x 128) and OECD (6823 x 519)
// analogues: copy a base selection's sketches and patch them with
// ApplyDelta to a selection `delta_rows` rows away, the work of a server
// near-miss patch. The base is a 15% random selection (crime: ~300 rows);
// half the delta rows leave it and half join it.
struct PatchFixture {
  SyntheticDataset ds;
  TableProfile profile;
  Selection base;
  SelectionSketches base_sketches;
};

const PatchFixture* MakePatchFixture(SyntheticDataset ds) {
  TableProfile profile = TableProfile::Compute(ds.table).ValueOrDie();
  Selection base(ds.table.num_rows());
  Rng rng(23);
  for (size_t r = 0; r < base.num_rows(); ++r) {
    if (rng.Bernoulli(0.15)) base.Set(r);
  }
  SelectionSketches sketches =
      SelectionSketches::Build(ds.table, profile, base);
  return new PatchFixture{std::move(ds), std::move(profile), std::move(base),
                          std::move(sketches)};
}

const PatchFixture& CrimePatch() {
  static const PatchFixture* fx =
      MakePatchFixture(MakeCrimeDataset().ValueOrDie());
  return *fx;
}

const PatchFixture& OecdPatch() {
  static const PatchFixture* fx =
      MakePatchFixture(MakeOecdDataset().ValueOrDie());
  return *fx;
}

void BM_ApplyDeltaWide(benchmark::State& state,
                       const PatchFixture& (*fixture)()) {
  const PatchFixture& fx = fixture();
  // Flip delta / 2 selected and the rest unselected rows, evenly spaced.
  const size_t delta = static_cast<size_t>(state.range(0));
  std::vector<size_t> in;
  std::vector<size_t> out;
  for (size_t r = 0; r < fx.base.num_rows(); ++r) {
    (fx.base.Contains(r) ? in : out).push_back(r);
  }
  Selection near = fx.base;
  for (size_t i = 0; i < delta / 2; ++i) {
    near.Set(in[i * in.size() / (delta / 2)], false);
  }
  for (size_t i = 0; i < delta - delta / 2; ++i) {
    near.Set(out[i * out.size() / (delta - delta / 2)], true);
  }
  for (auto _ : state) {
    SelectionSketches patched = fx.base_sketches;
    patched.ApplyDelta(fx.ds.table, fx.profile, fx.base, near);
    benchmark::DoNotOptimize(patched);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(delta));
}
BENCHMARK_CAPTURE(BM_ApplyDeltaWide, crime, &CrimePatch)
    ->ArgName("delta_rows")
    ->Arg(40)
    ->Arg(120)
    ->Arg(400)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ApplyDeltaWide, oecd, &OecdPatch)
    ->ArgName("delta_rows")
    ->Arg(40)
    ->Arg(120)
    ->Arg(400)
    ->Unit(benchmark::kMicrosecond);

// Component assembly alone on the OECD analogue (6823 x 519, 513
// numeric): sketches are built once outside the timed loop, so the loop
// times BuildComponentsFromSketches, which reads only the two sketches and
// the profile (the rank sums ride the scan, timed in BM_SelectionScanWide)
// and runs on the calling thread.
void BM_BuildFromSketchesWide(benchmark::State& state) {
  static const SyntheticDataset* ds =
      new SyntheticDataset(MakeOecdDataset().ValueOrDie());
  static const TableProfile* profile =
      new TableProfile(TableProfile::Compute(ds->table).ValueOrDie());
  static const SelectionSketches* inside = new SelectionSketches(
      SelectionSketches::Build(ds->table, *profile, ds->planted));
  static const SelectionSketches* outside = [] {
    auto* out = new SelectionSketches();
    out->InitShapes(ds->table, *profile);
    out->DeriveAsComplement(*profile, *inside);
    return out;
  }();
  const ComponentBuildOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildComponentsFromSketches(ds->table, *profile, ds->planted, *inside,
                                    *outside, opts)
            .ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds->table.num_columns()));
}
BENCHMARK(BM_BuildFromSketchesWide)->Unit(benchmark::kMillisecond);

void BM_CompleteLinkage(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  std::vector<double> dist(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double v = rng.Uniform(0, 1);
      dist[i * n + j] = v;
      dist[j * n + i] = v;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompleteLinkage(dist, n).ValueOrDie());
  }
}
BENCHMARK(BM_CompleteLinkage)->Arg(32)->Arg(128)->Arg(512);

// View search split at its query boundary: the plan (candidates and their
// column index) is built once per engine, the score runs on every read.
void BM_ViewPlanBuild(benchmark::State& state) {
  SyntheticDataset ds =
      MakeBenchDataset(2000, static_cast<size_t>(state.range(0)));
  TableProfile profile = TableProfile::Compute(ds.table).ValueOrDie();
  Dendrogram dendro = BuildColumnDendrogram(profile).ValueOrDie();
  ViewSearchOptions opts;
  opts.min_tightness = 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ViewPlan::Build(profile, dendro, opts).ValueOrDie());
  }
}
BENCHMARK(BM_ViewPlanBuild)->Arg(32)->Arg(128)->Arg(512);

void BM_ViewPlanScore(benchmark::State& state) {
  SyntheticDataset ds =
      MakeBenchDataset(2000, static_cast<size_t>(state.range(0)));
  TableProfile profile = TableProfile::Compute(ds.table).ValueOrDie();
  ComponentTable ct = BuildComponents(ds.table, profile, ds.planted).ValueOrDie();
  Dendrogram dendro = BuildColumnDendrogram(profile).ValueOrDie();
  ViewSearchOptions opts;
  opts.min_tightness = 0.3;
  const ViewPlan plan = ViewPlan::Build(profile, dendro, opts).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.Search(ct, opts));
  }
}
BENCHMARK(BM_ViewPlanScore)->Arg(32)->Arg(128)->Arg(512);

void BM_QueryParse(benchmark::State& state) {
  const std::string q =
      "SELECT * FROM t WHERE a > 1.5 AND (b BETWEEN 0 AND 2 OR c IN "
      "('x', 'y', 'z')) AND d IS NOT NULL";
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseQuery(q).ValueOrDie());
  }
}
BENCHMARK(BM_QueryParse);

void BM_PredicateEval(benchmark::State& state) {
  SyntheticDataset ds = MakeBenchDataset(static_cast<size_t>(state.range(0)), 16);
  ExprPtr e = ParsePredicate(ds.selection_predicate).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(e->Evaluate(ds.table).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PredicateEval)->Arg(2000)->Arg(32000);

// A stand-alone engine's refinement read: 8 rows away from its previous
// selection, patched from that one's cached sketches. The walk never
// repeats a selection (a repeat would be an exact sketch-cache hit): it
// toggles 8-row groups in Gray-code order, so every step flips one group
// and step i's selection is the planted one XOR the groups set in
// gray(i), distinct for every i < 2^kGroups.
void BM_IncrementalPrepare(benchmark::State& state) {
  constexpr size_t kGroupRows = 8;
  constexpr size_t kGroups = 20;
  SyntheticDataset ds = MakeBenchDataset(static_cast<size_t>(state.range(0)), 64);
  ZiggyEngine engine = ZiggyEngine::Create(ds.table).ValueOrDie();
  Selection selection = ds.planted;
  engine.Characterize(selection).ValueOrDie();
  uint64_t step = 0;
  for (auto _ : state) {
    if (++step >> kGroups != 0) {
      state.SkipWithError("the Gray-code walk ran out of fresh selections");
      break;
    }
    const size_t group = static_cast<size_t>(std::countr_zero(step));
    for (size_t r = group * kGroupRows; r < (group + 1) * kGroupRows; ++r) {
      selection.Set(r, !selection.Contains(r));
    }
    const Characterization result = engine.Characterize(selection).ValueOrDie();
    if (result.sketch_source != SketchSource::kCachePatched ||
        result.delta_rows != kGroupRows) {
      state.SkipWithError("a refinement read was not an 8-row patch");
      break;
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * kGroupRows);
}
BENCHMARK(BM_IncrementalPrepare)->Arg(2000)->Arg(32000);

void BM_ProfileSerialize(benchmark::State& state) {
  SyntheticDataset ds = MakeBenchDataset(4000, 64);
  TableProfile profile = TableProfile::Compute(ds.table).ValueOrDie();
  for (auto _ : state) {
    std::stringstream buf;
    profile.Serialize(&buf);
    benchmark::DoNotOptimize(TableProfile::Deserialize(&buf).ValueOrDie());
  }
}
BENCHMARK(BM_ProfileSerialize);

void BM_KlScorerBuild(benchmark::State& state) {
  SyntheticDataset ds = MakeBenchDataset(2000, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    GaussianKlScorer scorer(ds.table, ds.planted);
    benchmark::DoNotOptimize(scorer.Score(scorer.EligibleColumns()));
  }
}
BENCHMARK(BM_KlScorerBuild)->Arg(32)->Arg(128);

}  // namespace
}  // namespace ziggy

BENCHMARK_MAIN();
