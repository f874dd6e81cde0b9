#include <algorithm>
#include <cmath>

#include "bench_util.h"
#include "common/string_util.h"
#include "engine/ziggy_engine.h"
#include "query/parser.h"
#include "query/simplify.h"
#include "storage/csv.h"
#include "zbench.h"

namespace zbench {

using ziggy::FormatDouble;

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"crime-refine", "crime", ziggy::Verb::kViews, 3, /*refine=*/true,
       /*ingest=*/false, /*setup_opens=*/5, /*warmup_s=*/3, /*tail_q=*/0.99,
       /*replay_reads=*/150,
       "three sessions refine VIEWS queries on crime (1994x128): the reuse "
       "tiers (component cache, sketch cache, patching) do most of the work"},
      {"oecd-cold", "oecd", ziggy::Verb::kCharacterize, 2, false, false, 3, 6,
       0.90, 12,
       "two sessions send never-repeating CHARACTERIZE bands on oecd "
       "(6823x519): every read pays the full scan, build and view search"},
      {"box-ingest", "boxoffice", ziggy::Verb::kViews, 2, true, true, 5, 3,
       0.99, 150,
       "two VIEWS readers and one durable APPEND writer on boxoffice "
       "(900x12), then SIGKILL and warm restart: daemon, render and persist"},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string Workload::TableQuery(std::string_view verb,
                                 const std::string& query) const {
  return std::string(verb) + " t " + query;
}

namespace {

/// The dataset is the library's fixed demo table (the generators' default
/// seeds, as served by demo://<name>); the run seed varies the request
/// scripts and append batches, so runs on different seeds stay comparable.
Result<ziggy::SyntheticDataset> MakeDataset(const std::string& name) {
  if (name == "crime") return ziggy::MakeCrimeDataset();
  if (name == "oecd") return ziggy::MakeOecdDataset();
  return ziggy::MakeBoxOfficeDataset();
}

/// Rows of one append batch: copies of random initial rows, so they stay
/// inside every column's value range and category set. With `extend`, one
/// numeric cell goes past the column's current maximum, which forces the
/// daemon's cache-flush path.
std::vector<std::vector<ziggy::Value>> BatchRows(
    const Table& initial, std::vector<double>* column_max, ziggy::Rng* rng,
    bool extend, const std::vector<size_t>& numeric) {
  const size_t n = static_cast<size_t>(rng->UniformInt(2, 6));
  std::vector<std::vector<ziggy::Value>> rows;
  for (size_t i = 0; i < n; ++i) {
    const size_t r = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(initial.num_rows()) - 1));
    std::vector<ziggy::Value> row;
    for (size_t c = 0; c < initial.num_columns(); ++c) {
      row.push_back(initial.column(c).GetValue(r));
    }
    rows.push_back(std::move(row));
  }
  if (extend) {
    const size_t c = numeric[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(numeric.size()) - 1))];
    (*column_max)[c] += rng->Uniform(0.05, 0.3);
    rows[0][c] = (*column_max)[c];
  }
  return rows;
}

}  // namespace

Result<std::unique_ptr<Workload>> MakeWorkload(const WorkloadSpec& spec,
                                               uint64_t seed,
                                               const std::string& dir,
                                               double seconds) {
  auto w = std::make_unique<Workload>();
  w->spec = &spec;
  w->seed = seed;
  ZIGGY_ASSIGN_OR_RETURN(w->data, MakeDataset(spec.dataset));
  const Table& table = w->data.table;
  w->csv_path = dir + "/table.csv";
  ZIGGY_RETURN_NOT_OK(ziggy::WriteCsvFile(table, w->csv_path));

  std::vector<size_t> numeric;
  w->sorted_values.resize(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (!table.column(c).is_numeric()) continue;
    numeric.push_back(c);
    w->sorted_values[c] = table.column(c).numeric_data();
    std::sort(w->sorted_values[c].begin(), w->sorted_values[c].end());
  }
  w->script_columns = numeric;

  w->final_table = table;
  w->generation_rows = {table.num_rows()};
  if (spec.ingest) {
    // The probe column is reserved: no script read touches it, so the
    // probe's selection is far from every cached one and is computed by a
    // cold scan both before the SIGKILL and after the warm restart.
    const size_t probe = numeric.back();
    w->script_columns.pop_back();
    const auto& v = w->sorted_values[probe];
    w->probe_query = table.column(probe).name() + " BETWEEN " +
                     FormatDouble(v[v.size() * 35 / 100], 17) + " AND " +
                     FormatDouble(v[v.size() * 65 / 100], 17);

    ziggy::Rng rng(seed * 7919 + 17);
    std::vector<double> column_max(table.num_columns(), 0.0);
    for (size_t c : numeric) column_max[c] = w->sorted_values[c].back();
    const size_t count =
        static_cast<size_t>(std::ceil(seconds * 1000.0 / kAppendPeriodMs)) + 20;
    for (size_t k = 0; k < count; ++k) {
      AppendBatch batch;
      batch.extends_range = rng.Bernoulli(0.125);
      const auto rows =
          BatchRows(table, &column_max, &rng, batch.extends_range, numeric);
      ziggy::TableBuilder builder(table.schema());
      for (const auto& row : rows) ZIGGY_RETURN_NOT_OK(builder.AppendRow(row));
      ZIGGY_ASSIGN_OR_RETURN(batch.rows, builder.Finish());
      batch.csv_path = dir + "/batch" + std::to_string(k) + ".csv";
      ZIGGY_RETURN_NOT_OK(ziggy::WriteCsvFile(batch.rows, batch.csv_path));
      ZIGGY_ASSIGN_OR_RETURN(w->final_table,
                             w->final_table.WithAppendedRows(batch.rows));
      w->generation_rows.push_back(w->final_table.num_rows());
      w->batches.push_back(std::move(batch));
    }
  }

  // The in-process engine the planted-predicate reply is compared with.
  // Thread counts change no result, only the time to get it.
  ziggy::ZiggyOptions options = DaemonServeOptions().engine;
  options.profile.num_threads = 4;
  options.build.num_threads = 4;
  ZIGGY_ASSIGN_OR_RETURN(ziggy::ZiggyEngine engine,
                         ziggy::ZiggyEngine::Create(table, options));
  ZIGGY_ASSIGN_OR_RETURN(ziggy::Characterization reference,
                         engine.CharacterizeQuery(w->data.selection_predicate));
  w->reference_recovery =
      ziggy::bench::RecoveryRate(w->data.planted_views, reference.views);
  return w;
}

// ---------------------------------------------------------- ReadScript --

namespace {

std::vector<int64_t> Range(int64_t lo, int64_t hi) {
  std::vector<int64_t> out;
  for (int64_t v = lo; v <= hi; ++v) out.push_back(v);
  return out;
}

}  // namespace

ReadScript::ReadScript(const Workload& workload, size_t session)
    : w_(workload),
      rng_(workload.seed * 1000003 + session * 7907 + 1),
      columns_(workload.script_columns),
      widths_(workload.spec->refine ? Range(5, 20) : Range(3, 12)),
      lengths_(Range(6, 14)),
      moves_({Move::kNarrow, Move::kNarrow, Move::kNarrow, Move::kNarrow,
              Move::kNarrow, Move::kNarrow, Move::kWiden, Move::kWiden,
              Move::kWiden, Move::kWiden, Move::kShift, Move::kShift,
              Move::kShift, Move::kShift, Move::kConjunct, Move::kConjunct,
              Move::kConjunct, Move::kBack, Move::kBack, Move::kBack}) {}

ReadScript::Band ReadScript::RandomBand(int64_t width) {
  Band band;
  band.column = columns_.Draw(&rng_);
  band.lo = rng_.UniformInt(0, kCells - width);
  band.hi = band.lo + width;
  return band;
}

ReadScript::Step ReadScript::Mutate(const Step& step, Move move) {
  Step next = step;
  Band& a = next.a;
  const int64_t width = a.hi - a.lo;
  auto resize = [&](double factor) {
    const int64_t to = std::clamp<int64_t>(
        std::llround(static_cast<double>(width) * factor), 1, kCells);
    a.lo = std::clamp<int64_t>(a.lo + (width - to) / 2, 0, kCells - to);
    a.hi = a.lo + to;
  };
  switch (move) {
    case Move::kNarrow:
      resize(rng_.Uniform(0.5, 0.85));
      break;
    case Move::kWiden:
      resize(rng_.Uniform(1.2, 1.6));
      break;
    case Move::kConjunct:
      next.has_b = !next.has_b;
      if (next.has_b) next.b = RandomBand(rng_.UniformInt(20, 40));
      break;
    default: {  // kShift (kBack is handled by the caller)
      const int64_t by = rng_.UniformInt(1, 5) * (rng_.Bernoulli(0.5) ? 1 : -1);
      const int64_t shift = std::clamp<int64_t>(by, -a.lo, kCells - a.hi);
      a.lo += shift;
      a.hi += shift;
    }
  }
  return next;
}

std::string ReadScript::Render(const Step& step) const {
  auto band = [&](const Band& b) {
    const auto& v = w_.sorted_values[b.column];
    auto at = [&](int64_t cell) {
      return FormatDouble(v[static_cast<size_t>(cell) * (v.size() - 1) / kCells], 17);
    };
    return w_.final_table.column(b.column).name() + " BETWEEN " + at(b.lo) +
           " AND " + at(b.hi);
  };
  std::string out = band(step.a);
  if (step.has_b) out += " AND " + band(step.b);
  return out;
}

ReadRequest ReadScript::Next() {
  const size_t initial_rows = w_.generation_rows.front();
  auto evaluate = [&](const std::string& query) -> std::optional<Selection> {
    Result<ziggy::ExprPtr> expr = ziggy::ParseQuery(query);
    if (!expr.ok()) return std::nullopt;
    Result<Selection> sel =
        ziggy::SimplifyPredicate(std::move(*expr))->Evaluate(w_.final_table);
    if (!sel.ok()) return std::nullopt;
    // Reject selections the daemon must refuse: empty, or the whole table
    // at the first generation (appends only add rows on both sides).
    size_t inside = 0;
    for (size_t r = 0; r < initial_rows; ++r) inside += sel->Contains(r) ? 1 : 0;
    if (inside == 0 || inside == initial_rows) return std::nullopt;
    return std::move(*sel);
  };

  if (!planted_sent_) {
    planted_sent_ = true;
    std::optional<Selection> sel = evaluate(w_.data.selection_predicate);
    return ReadRequest{w_.data.selection_predicate, std::move(*sel), true};
  }
  for (;;) {
    Step step;
    if (!w_.spec->refine) {
      step.a = RandomBand(widths_.Draw(&rng_));
    } else if (chain_left_ == 0 || chain_.empty()) {
      chain_.clear();
      chain_left_ = static_cast<size_t>(lengths_.Draw(&rng_));
      step.a = RandomBand(widths_.Draw(&rng_));
    } else if (const Move move = moves_.Draw(&rng_);
               move == Move::kBack && chain_.size() >= 2) {
      // Step back to one of the chain's last few queries (an exact repeat).
      const size_t back = static_cast<size_t>(rng_.UniformInt(
          2, static_cast<int64_t>(std::min<size_t>(chain_.size(), 4))));
      step = chain_[chain_.size() - back];
    } else {
      step = Mutate(chain_.back(), move);
    }
    const std::string query = Render(step);
    std::optional<Selection> sel = evaluate(query);
    if (!sel.has_value()) {
      chain_left_ = 0;  // a dead end restarts the chain
      continue;
    }
    if (!w_.spec->refine) {
      const uint64_t fp = sel->Fingerprint();
      if (std::find(seen_.begin(), seen_.end(), fp) != seen_.end()) continue;
      seen_.push_back(fp);
    } else {
      chain_.push_back(step);
      --chain_left_;
    }
    return ReadRequest{query, std::move(*sel), false};
  }
}

}  // namespace zbench
