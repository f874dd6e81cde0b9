#include <iomanip>

#include "engine/json.h"
#include "engine/report.h"
#include "obs/trace.h"
#include "persist/store.h"
#include "query/ast.h"
#include "query/parser.h"
#include "query/simplify.h"
#include "storage/csv.h"
#include "views/view_search.h"
#include "zbench.h"

namespace zbench {

using ziggy::ExprPtr;

ziggy::ServeOptions DaemonServeOptions() {
  // tools/ziggy_daemon.cc: the daemon's own search defaults on top of the
  // library's; everything else (threads, cache budget) is default.
  ziggy::ServeOptions options;
  options.engine.search.min_tightness = 0.4;
  options.engine.search.max_views = 10;
  return options;
}

namespace {

/// Microseconds spent in `fn`.
template <typename Fn>
double TimeUs(Fn&& fn) {
  const double t0 = NowSeconds();
  fn();
  return (NowSeconds() - t0) * 1e6;
}

/// Leaf predicates in `expr`: each one examines every row of the table.
size_t CountAtoms(const ziggy::Expr& expr) {
  if (const auto* logical = dynamic_cast<const ziggy::LogicalExpr*>(&expr)) {
    size_t n = 0;
    for (const ExprPtr& child : logical->children()) n += CountAtoms(*child);
    return n;
  }
  if (const auto* negated = dynamic_cast<const ziggy::NotExpr*>(&expr)) {
    return CountAtoms(negated->child());
  }
  return 1;
}

/// Per-read self times, in the order they run inside ZiggyServer::Characterize.
struct Stages {
  double parse = 0, eval = 0, lookup = 0, scan = 0, build = 0, search = 0,
         validate = 0, explain = 0;
  double Sum() const {
    return parse + eval + lookup + scan + build + search + validate + explain;
  }
  void Add(const Stages& o) {
    parse += o.parse, eval += o.eval, lookup += o.lookup, scan += o.scan;
    build += o.build, search += o.search, validate += o.validate;
    explain += o.explain;
  }
};

}  // namespace

std::map<std::string, double> RunTrace(const Workload& w, const WireResult& wire,
                                       std::ostream& report) {
  const WorkloadSpec& spec = *w.spec;
  std::map<std::string, double> m;
  ziggy::ServeOptions options = DaemonServeOptions();
  // A registry arms the server's own scan / sketch-lookup spans, which the
  // RequestTrace below collects per call.
  options.metrics = std::make_shared<ziggy::obs::MetricsRegistry>();

  // ---- OPEN's stages, at the daemon's thread count -------------------------
  Result<Table> parsed = Status::Internal("unset");
  m["storage.csv_parse_ms"] =
      TimeUs([&] { parsed = ziggy::ReadCsvFile(w.csv_path); }) / 1e3;
  Result<ziggy::TableProfile> profile = Status::Internal("unset");
  m["zig.profile_ms"] = TimeUs([&] {
                          profile = ziggy::TableProfile::Compute(
                              *parsed, options.engine.profile);
                        }) / 1e3;
  m["views.dendrogram_ms"] =
      TimeUs([&] { (void)ziggy::BuildColumnDendrogram(*profile); }) / 1e3;
  Result<std::unique_ptr<ziggy::ZiggyServer>> server =
      ziggy::ZiggyServer::CreateFromState(std::move(*parsed), 0,
                                          std::move(*profile), options);
  if (!server.ok()) {
    report << "trace: cannot create server: " << server.status() << "\n";
    return m;
  }

  // ---- the read script, round-robin over the sessions ----------------------
  std::vector<ReadScript> scripts;
  std::vector<uint64_t> sessions;
  for (size_t s = 0; s < spec.readers; ++s) {
    scripts.emplace_back(w, s);
    sessions.push_back((*server)->OpenSession());
  }
  // Appends land at the wire run's read:append ratio.
  const size_t reads_per_append =
      wire.acked_batches == 0
          ? 0
          : std::max<size_t>(1, wire.read_ms.size() / wire.acked_batches);
  Stages total;
  double characterize_us = 0, render_us = 0, shadow_scan_us = 0, scanned_rows = 0;
  double candidates = 0, dropped = 0, examined = 0, selected = 0;
  double append_rows_us = 0, profile_append_us = 0;
  size_t reads = 0, appends = 0, failures = 0;
  const ziggy::ZiggyOptions& engine = options.engine;
  for (size_t step = 0; step < spec.replay_reads * spec.readers; ++step) {
    const size_t s = step % spec.readers;
    const ReadRequest request = scripts[s].Next();

    ziggy::obs::RequestTrace spans;
    Result<ziggy::Characterization> result = Status::Internal("unset");
    const double t_call = TimeUs([&] {
      ziggy::obs::RequestTrace::Scope scope(&spans);
      result = (*server)->Characterize(sessions[s], request.query);
    });
    if (!result.ok()) {
      ++failures;
      continue;
    }

    // Self times of the call. The engine times its own stages
    // (Characterization::timings) and the server spans sketch lookup and
    // scan, so those come from inside the call. Parsing and evaluation run
    // before the engine's clock starts and are timed here through the same
    // public functions; so is the validate/explain split of
    // post-processing, on a shadow build of the same selection.
    const auto state = (*server)->state();
    const Table& table = state->table();
    const ziggy::TableProfile& prof = *state->profile;
    Stages self;
    ExprPtr expr;
    self.parse = TimeUs([&] {
      Result<ExprPtr> parsed_query = ziggy::ParseQuery(request.query);
      expr = ziggy::SimplifyPredicate(std::move(*parsed_query));
    });
    Result<Selection> selection = Status::Internal("unset");
    self.eval = TimeUs([&] { selection = expr->Evaluate(table); });
    examined += static_cast<double>(CountAtoms(*expr) * table.num_rows());
    selected += static_cast<double>(selection->Count());
    for (const ziggy::obs::SpanRecord& span : spans.spans()) {
      const double us = static_cast<double>(span.duration_us);
      (std::string_view(span.name) == "scan" ? self.scan : self.lookup) += us;
    }
    const ziggy::StageTimings& timings = result->timings;
    self.build = std::max(0.0, timings.preparation_ms * 1e3 - self.lookup - self.scan);
    self.search = timings.search_ms * 1e3;

    ziggy::SelectionSketches inside;
    shadow_scan_us += TimeUs([&] {
      inside = ziggy::SelectionSketches::Build(table, prof, *selection,
                                               options.scan_threads);
    });
    scanned_rows += static_cast<double>(table.num_rows());
    ziggy::SelectionSketches outside;
    outside.InitShapes(table, prof);
    outside.DeriveAsComplement(prof, inside);
    Result<ziggy::ComponentTable> components = ziggy::BuildComponentsFromSketches(
        table, prof, *selection, inside, outside, engine.build);
    Result<ziggy::ViewSearchResult> search = ziggy::SearchViews(
        prof, *components, engine.search, state->dendrogram.get());
    const double validate_us = TimeUs([&] {
      (void)ziggy::ValidateViews(&search->views, *components, engine.validation);
    });
    const double text_us = TimeUs([&] {
      for (const ziggy::View& v : search->views) {
        (void)ziggy::ExplainView(v, *components, table.schema(), engine.explain);
      }
    });
    const double post_us = timings.post_processing_ms * 1e3;
    self.validate = validate_us + text_us > 0
                        ? post_us * validate_us / (validate_us + text_us)
                        : 0;
    self.explain = post_us - self.validate;
    render_us += TimeUs([&] {
      if (spec.read_verb == ziggy::Verb::kViews) {
        (void)ziggy::RenderCharacterizationReport(*result, table.schema());
      } else {
        (void)ziggy::CharacterizationToJson(*result, table.schema());
      }
    });
    total.Add(self);
    characterize_us += t_call;
    candidates += static_cast<double>(result->num_candidates);
    dropped += static_cast<double>(result->views_dropped);
    ++reads;

    if (reads_per_append > 0 && reads % reads_per_append == 0 &&
        appends < wire.acked_batches) {
      const AppendBatch& batch = w.batches[appends++];
      const auto before = (*server)->state();
      Result<Table> grown = Status::Internal("unset");
      append_rows_us += TimeUs(
          [&] { grown = before->table().WithAppendedRows(batch.rows); });
      ziggy::TableProfile next = *before->profile;
      profile_append_us += TimeUs(
          [&] { (void)next.ApplyAppend(*grown, before->table().num_rows()); });
      if (!(*server)->Append(batch.rows).ok()) ++failures;
    }
  }

  const double n = static_cast<double>(std::max<size_t>(reads, 1));
  const double unattributed = (characterize_us - total.Sum()) / n;
  m["serve.characterize_us"] = characterize_us / n;
  m["query.parse_us"] = total.parse / n;
  m["query.eval_us"] = total.eval / n;
  m["serve.lookup_us"] = total.lookup / n;
  m["zig.scan_us"] = total.scan / n;
  m["zig.component_build_us"] = total.build / n;
  m["views.search_us"] = total.search / n;
  m["explain.validate_us"] = total.validate / n;
  m["explain.text_us"] = total.explain / n;
  m["engine.unattributed_us"] = unattributed;
  m["engine.render_us"] = render_us / n;
  m["query.rows_examined_per_selected"] = selected > 0 ? examined / selected : 0;
  m["zig.scan_rows_per_s"] = shadow_scan_us > 0 ? scanned_rows / (shadow_scan_us / 1e6) : 0;
  m["views.candidates"] = candidates / n;
  m["explain.dropped_ratio"] = candidates > 0 ? dropped / candidates : 0;
  m["storage.append_rows_us"] = appends > 0 ? append_rows_us / appends : 0;
  m["zig.profile_append_us"] = appends > 0 ? profile_append_us / appends : 0;

  // ---- protocol codec over the lines the wire run recorded -----------------
  double codec_us = 1e300;
  for (int pass = 0; pass < 5 && !wire.recorded.empty(); ++pass) {
    codec_us = std::min(codec_us, TimeUs([&] {
                          for (const auto& [request, reply] : wire.recorded) {
                            (void)ziggy::LineProtocol::ParseRequest(request);
                            (void)ziggy::LineProtocol::ParseResponse(reply);
                          }
                        }) / static_cast<double>(wire.recorded.size()));
  }
  m["protocol.codec_us"] = wire.recorded.empty() ? 0 : codec_us;

  // ---- warm load of the store the wire run left behind ---------------------
  m["persist.load_ms"] = 0;
  if (!wire.store_dir.empty()) {
    m["persist.load_ms"] = TimeUs([&] {
                             auto store = ziggy::ZiggyStore::Open(wire.store_dir);
                             if (store.ok()) (void)(*store)->LoadTable("t");
                           }) / 1e3;
  }

  report << "self time per read, mean of " << reads << " replayed reads ("
         << failures << " failed):\n";
  const std::pair<const char*, double> rows[] = {
      {"query.parse_us", total.parse / n},
      {"query.eval_us", total.eval / n},
      {"serve.lookup_us", total.lookup / n},
      {"zig.scan_us", total.scan / n},
      {"zig.component_build_us", total.build / n},
      {"views.search_us", total.search / n},
      {"explain.validate_us", total.validate / n},
      {"explain.text_us", total.explain / n},
      {"engine.unattributed_us", unattributed},
      {"= serve.characterize_us", characterize_us / n},
  };
  for (const auto& [name, value] : rows) {
    report << "  " << std::left << std::setw(26) << name << std::right
           << std::setw(12) << std::fixed << std::setprecision(1) << value << "\n";
  }
  report << "  (engine.render_us " << render_us / n << " follows the call)\n";
  report.unsetf(std::ios::fixed);
  return m;
}

}  // namespace zbench
