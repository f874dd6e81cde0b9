#include "serve/daemon/handler.h"

#include <array>
#include <initializer_list>
#include <span>
#include <string_view>
#include <tuple>
#include <type_traits>

#include "common/string_util.h"
#include "data/synthetic.h"
#include "engine/json.h"
#include "engine/report.h"
#include "obs/trace.h"
#include "storage/csv.h"

namespace ziggy {

namespace {

std::string ServeStatsJson(const ServeStats& st) {
  JsonWriter w;
  w.BeginObject().Key("generation").Uint(st.generation);
  w.Key("sessions_opened").Uint(st.sessions_opened);
  w.Key("requests").Uint(st.requests);
  w.Key("failures").Uint(st.failures);
  w.Key("sketch_exact_hits").Uint(st.sketch_exact_hits);
  w.Key("sketch_patched_hits").Uint(st.sketch_patched_hits);
  w.Key("sketch_misses").Uint(st.sketch_misses);
  w.Key("patched_delta_rows").Uint(st.patched_delta_rows);
  w.Key("appends").Uint(st.appends);
  w.Key("appended_rows").Uint(st.appended_rows);
  w.Key("cache_flushes").Uint(st.cache_flushes);
  w.Key("sketch_cache").BeginObject();
  w.Key("hits").Uint(st.cache.hits);
  w.Key("misses").Uint(st.cache.misses);
  w.Key("insertions").Uint(st.cache.insertions);
  w.Key("evictions").Uint(st.cache.evictions);
  w.Key("bytes_in_use").Uint(st.cache.bytes_in_use);
  w.Key("entries").Uint(st.cache.entries).EndObject();
  return w.EndObject().Take();
}

// How a STATS / HEALTH key reads the registry.
enum KeySource {
  kCounter,  // the counter's value
  kGauge,    // the gauge's value
  kFlag,     // a 0/1 gauge, as false / true
  kStatus,   // the degraded gauge, as "ok" / "degraded"
  kDirty,    // the refresh pass's (table, age_ms) rows, as an array
};

// One wire key and the series it renders. Dots in `key` nest objects
// ("store.dict_pool.files" is "files" inside "dict_pool" inside "store");
// rows are in wire order, and the rows of one object are contiguous.
struct StatsKey {
  const char* key;
  KeySource source;
  const char* series;
};

constexpr StatsKey kStatsKeys[] = {
    {"tables", kGauge, "ziggy_catalog_tables"},
    {"tables_opened", kCounter, "ziggy_catalog_tables_opened_total"},
    {"tables_closed", kCounter, "ziggy_catalog_tables_closed_total"},
    {"shared_budget_total_bytes", kGauge,
     "ziggy_catalog_shared_budget_total_bytes"},
    {"shared_budget_used_bytes", kGauge,
     "ziggy_catalog_shared_budget_used_bytes"},
    {"worker_pool_threads", kGauge, "ziggy_catalog_worker_pool_threads"},
    {"store.attached", kFlag, "ziggy_store_attached"},
    {"store.tables", kGauge, "ziggy_store_tables"},
    {"store.opens", kCounter, "ziggy_store_opens_total"},
    {"store.saves", kCounter, "ziggy_store_saves_total"},
    {"store.full_checkpoints", kGauge, "ziggy_store_full_checkpoints"},
    {"store.delta_checkpoints", kGauge, "ziggy_store_delta_checkpoints"},
    {"store.compactions", kGauge, "ziggy_store_compactions"},
    {"store.checkpoint_bytes", kGauge, "ziggy_store_checkpoint_bytes"},
    {"store.checkpoint_raw_bytes", kGauge, "ziggy_store_checkpoint_raw_bytes"},
    {"store.dict_pool.files", kGauge, "ziggy_store_dict_pool_files"},
    {"store.dict_pool.bytes", kGauge, "ziggy_store_dict_pool_bytes"},
    {"store.dict_pool.shared_hits", kGauge,
     "ziggy_store_dict_pool_shared_hits"},
    {"flusher.active", kFlag, "ziggy_flusher_active"},
    {"flusher.dirty_tables", kGauge, "ziggy_flusher_queue_depth"},
    {"flusher.cycles", kCounter, "ziggy_flusher_cycles_total"},
    {"flusher.flushed_tables", kCounter, "ziggy_flusher_flushed_tables_total"},
    {"flusher.failures", kCounter, "ziggy_flusher_failures_total"},
    {"flusher.backoff_tables", kGauge, "ziggy_flusher_backoff_tables"},
    {"flusher.degraded", kFlag, "ziggy_flusher_degraded"},
    {"flusher.consecutive_failures", kGauge,
     "ziggy_flusher_consecutive_failures"},
    {"flusher.queue_depth", kGauge, "ziggy_flusher_queue_depth"},
    {"flusher.max_dirty_age_ms", kGauge, "ziggy_flusher_max_dirty_age_ms"},
    {"flusher.dirty", kDirty, ""},
};

constexpr StatsKey kHealthKeys[] = {
    {"status", kStatus, "ziggy_flusher_degraded"},
    {"tables", kGauge, "ziggy_catalog_tables"},
    {"dirty_tables", kGauge, "ziggy_flusher_queue_depth"},
    {"flush_backoff_tables", kGauge, "ziggy_flusher_backoff_tables"},
    {"consecutive_failures", kGauge, "ziggy_flusher_consecutive_failures"},
    {"flush_lag_ms", kGauge, "ziggy_flusher_max_dirty_age_ms"},
    {"retry_after_ms", kGauge, "ziggy_flusher_retry_after_ms"},
};

// The daemon's connection counters, the last object of STATS and HEALTH
// (all zeros for a handler driven without a daemon).
constexpr StatsKey kConnectionKeys[] = {
    {"connections.accepted", kCounter,
     "ziggy_daemon_connections_accepted_total"},
    {"connections.rejected", kCounter,
     "ziggy_daemon_connections_rejected_total"},
    {"connections.timed_out", kCounter,
     "ziggy_daemon_connections_timed_out_total"},
    {"connections.live", kGauge, "ziggy_daemon_live_connections"},
    {"connections.accept_retries", kCounter,
     "ziggy_daemon_accept_retries_total"},
    {"connections.requests", kCounter, "ziggy_daemon_requests_total"},
    {"connections.protocol_errors", kCounter,
     "ziggy_daemon_protocol_errors_total"},
    {"connections.reads_throttled", kCounter,
     "ziggy_daemon_reads_throttled_total"},
    {"connections.pipelined_requests", kCounter,
     "ziggy_daemon_pipelined_requests_total"},
    {"connections.dispatch_batches", kCounter,
     "ziggy_daemon_dispatch_batches_total"},
};

// Renders the rows of `tables`, in order, as one JSON object read off
// `metrics` (which the caller has just refreshed).
std::string RenderStatsJson(
    std::initializer_list<std::span<const StatsKey>> tables,
    const obs::MetricsRegistry& metrics,
    const std::vector<std::pair<std::string, uint64_t>>& dirty) {
  JsonWriter w;
  w.BeginObject();
  std::vector<std::string_view> open;  // path of the object being written
  for (const std::span<const StatsKey> table : tables) {
    for (const StatsKey& row : table) {
      std::string_view key = row.key;
      std::vector<std::string_view> parents;
      for (size_t dot; (dot = key.find('.')) != std::string_view::npos;
           key.remove_prefix(dot + 1)) {
        parents.push_back(key.substr(0, dot));
      }
      size_t common = 0;
      while (common < open.size() && common < parents.size() &&
             open[common] == parents[common]) {
        ++common;
      }
      for (; open.size() > common; open.pop_back()) w.EndObject();
      while (open.size() < parents.size()) {
        open.push_back(parents[open.size()]);
        w.Key(open.back()).BeginObject();
      }
      w.Key(key);
      switch (row.source) {
        case kCounter:
          w.Uint(metrics.CounterValue(row.series));
          break;
        case kGauge:
          w.Int(metrics.GaugeValue(row.series));
          break;
        case kFlag:
          w.Bool(metrics.GaugeValue(row.series) != 0);
          break;
        case kStatus:
          w.String(metrics.GaugeValue(row.series) != 0 ? "degraded" : "ok");
          break;
        case kDirty:
          w.BeginArray();
          for (const auto& [name, age_ms] : dirty) {
            w.BeginObject().Key("table").String(name);
            w.Key("age_ms").Uint(age_ms).EndObject();
          }
          w.EndArray();
          break;
      }
    }
  }
  for (; !open.empty(); open.pop_back()) w.EndObject();
  return w.EndObject().Take();
}

}  // namespace

Result<Table> LoadTableFromSource(const std::string& source,
                                  obs::MetricsRegistry* metrics) {
  obs::TraceSpan span("open_csv_parse",
                      metrics != nullptr ? metrics->clock() : nullptr,
                      metrics != nullptr
                          ? metrics->histogram("ziggy_open_csv_parse_us")
                          : nullptr);
  if (!StartsWith(source, "demo://")) return ReadCsvFile(source);
  std::string rest = source.substr(7);
  uint64_t seed = 0;
  bool have_seed = false;
  const size_t q = rest.find('?');
  if (q != std::string::npos) {
    const std::string query = rest.substr(q + 1);
    rest = rest.substr(0, q);
    if (!StartsWith(query, "seed=")) {
      return Status::InvalidArgument("unknown demo parameter: " + query);
    }
    ZIGGY_ASSIGN_OR_RETURN(int64_t parsed, ParseInt(query.substr(5)));
    if (parsed < 0) return Status::InvalidArgument("seed must be >= 0");
    seed = static_cast<uint64_t>(parsed);
    have_seed = true;
  }
  Result<SyntheticDataset> ds =
      Status::InvalidArgument("unknown demo dataset: " + rest);
  if (rest == "boxoffice") ds = MakeBoxOfficeDataset(have_seed ? seed : 7);
  if (rest == "crime") ds = MakeCrimeDataset(have_seed ? seed : 11);
  if (rest == "oecd") ds = MakeOecdDataset(have_seed ? seed : 13);
  ZIGGY_RETURN_NOT_OK(ds.status());
  return std::move(ds->table);
}

Result<DaemonHandler::BoundSession> DaemonHandler::SessionFor(
    const std::string& table) {
  // Always resolve through the catalog: another connection may have
  // CLOSEd (or closed and re-OPENed) the name since we bound to it, and a
  // cached binding would silently keep serving the dead table.
  ZIGGY_ASSIGN_OR_RETURN(std::shared_ptr<ZiggyServer> server,
                         catalog_->Find(table));
  auto it = sessions_.find(table);
  if (it != sessions_.end()) {
    if (it->second.server == server) return it->second;
    (void)it->second.server->CloseSession(it->second.session_id);
    sessions_.erase(it);
  }
  BoundSession bound;
  bound.server = std::move(server);
  bound.session_id = bound.server->OpenSession();
  sessions_.emplace(table, bound);
  return bound;
}

void DaemonHandler::CloseAllSessions() {
  for (auto& [table, bound] : sessions_) {
    (void)bound.server->CloseSession(bound.session_id);
  }
  sessions_.clear();
}

WireResponse DaemonHandler::Handle(const WireRequest& request) {
  // The dispatch half of the verb table: one member function per
  // VerbTable() row, indexed by enum value (the table is in enum order —
  // protocol_test pins that invariant). Adding a verb means one row in
  // kVerbTable and one entry here; nothing else switches on Verb.
  using HandlerFn = WireResponse (DaemonHandler::*)(const WireRequest&);
  static constexpr std::array<HandlerFn, 13> kDispatch = {{
      &DaemonHandler::HandleOpen,
      &DaemonHandler::HandleList,
      &DaemonHandler::HandleCharacterize,
      &DaemonHandler::HandleViews,
      &DaemonHandler::HandleAppend,
      &DaemonHandler::HandleStats,
      &DaemonHandler::HandleSave,
      &DaemonHandler::HandlePersist,
      &DaemonHandler::HandleClose,
      &DaemonHandler::HandleHealth,
      &DaemonHandler::HandleHello,
      &DaemonHandler::HandleQuit,
      &DaemonHandler::HandleMetrics,
  }};
  static_assert(kDispatch.size() == std::tuple_size_v<std::remove_reference_t<
                                        decltype(VerbTable())>>,
                "dispatch table must cover every verb");
  const size_t index = static_cast<size_t>(request.verb);
  if (index >= kDispatch.size()) {
    return WireResponse::Error(Status::Internal("unhandled verb"));
  }
  return (this->*kDispatch[index])(request);
}

WireResponse DaemonHandler::HandleOpen(const WireRequest& request) {
  const std::string& name = request.args[0];
  Result<std::shared_ptr<ZiggyServer>> server =
      Status::Internal("unreachable");
  bool try_cold = true;
  if (catalog_->StoreHas(name)) {
    // Warm path: serve the checkpoint (binary table + finished profile +
    // warm sketch cache); the <source> argument only matters on a cold
    // open. The reply is identical to a cold open's, so one golden
    // transcript covers both boot paths. An unreadable checkpoint falls
    // back to the cold source — availability over warmth; the next SAVE
    // rewrites the damaged files. Only AlreadyExists is final: the cold
    // path could not publish the name either.
    server = catalog_->OpenFromStore(name);
    try_cold = !server.ok() && !server.status().IsAlreadyExists();
  }
  if (try_cold) {
    Result<Table> table =
        LoadTableFromSource(request.args[1], catalog_->metrics());
    if (!table.ok()) return WireResponse::Error(table.status());
    server = catalog_->Open(name, std::move(*table));
  }
  if (!server.ok()) return WireResponse::Error(server.status());
  const auto state = (*server)->state();
  JsonWriter w;
  w.BeginObject().Key("table").String(name);
  w.Key("rows").Uint(state->table().num_rows());
  w.Key("columns").Uint(state->table().num_columns());
  w.Key("generation").Uint(state->generation());
  return WireResponse::Ok(w.EndObject().Take());
}

WireResponse DaemonHandler::HandleList(const WireRequest&) {
  JsonWriter w;
  w.BeginObject().Key("tables").BeginArray();
  for (const CatalogTableInfo& info : catalog_->List()) {
    w.BeginObject().Key("name").String(info.name);
    w.Key("rows").Uint(info.num_rows);
    w.Key("columns").Uint(info.num_columns);
    w.Key("generation").Uint(info.generation);
    w.Key("sessions").Uint(info.num_sessions).EndObject();
  }
  return WireResponse::Ok(w.EndArray().EndObject().Take());
}

WireResponse DaemonHandler::HandleCharacterize(const WireRequest& request) {
  return CharacterizeImpl(request, /*views_only=*/false);
}

WireResponse DaemonHandler::HandleViews(const WireRequest& request) {
  return CharacterizeImpl(request, /*views_only=*/true);
}

WireResponse DaemonHandler::CharacterizeImpl(const WireRequest& request,
                                             bool views_only) {
  const std::string& table = request.args[0];
  const std::string& query = request.args[1];
  Result<BoundSession> bound = SessionFor(table);
  if (!bound.ok()) return WireResponse::Error(bound.status());
  Result<Characterization> result =
      bound->server->Characterize(bound->session_id, query);
  if (!result.ok()) return WireResponse::Error(result.status());
  const Schema& schema = bound->server->state()->table().schema();
  JsonWriter w;
  if (views_only) {
    return WireResponse::Ok(
        w.String(RenderCharacterizationReport(*result, schema)).Take());
  }
  w.BeginObject().Key("table").String(table);
  w.Key("sketches").String(SketchSourceToString(result->sketch_source));
  w.Key("result").Raw(CharacterizationToJson(*result, schema));
  return WireResponse::Ok(w.EndObject().Take());
}

WireResponse DaemonHandler::HandleAppend(const WireRequest& request) {
  const std::string& name = request.args[0];
  Result<Table> rows = LoadTableFromSource(request.args[1]);
  if (!rows.ok()) return WireResponse::Error(rows.status());
  const size_t appended = rows->num_rows();
  // Routed through the catalog so checkpoint-on-append fires when the
  // table is marked persistent. A failed checkpoint does not fail the
  // append (the rows are served either way) but is surfaced in the reply.
  Status checkpoint = Status::OK();
  Result<uint64_t> generation = catalog_->Append(name, *rows, &checkpoint);
  if (!generation.ok()) return WireResponse::Error(generation.status());
  JsonWriter w;
  w.BeginObject().Key("table").String(name);
  w.Key("appended_rows").Uint(appended);
  w.Key("generation").Uint(*generation);
  if (!checkpoint.ok()) w.Key("checkpoint_error").String(checkpoint.ToString());
  return WireResponse::Ok(w.EndObject().Take());
}

WireResponse DaemonHandler::HandleStats(const WireRequest& request) {
  if (request.args.empty()) {
    const auto dirty = RefreshMetrics();
    return WireResponse::Ok(RenderStatsJson(
        {kStatsKeys, kConnectionKeys}, *catalog_->metrics(), dirty));
  }
  Result<std::shared_ptr<ZiggyServer>> server = catalog_->Find(request.args[0]);
  if (!server.ok()) return WireResponse::Error(server.status());
  return WireResponse::Ok(ServeStatsJson((*server)->stats()));
}

WireResponse DaemonHandler::HandleSave(const WireRequest& request) {
  if (!catalog_->HasStore()) {
    return WireResponse::Error(Status::FailedPrecondition(
        "no store attached (start the daemon with --store DIR)"));
  }
  std::vector<TableSaveResult> results;
  if (request.args.empty()) {
    Result<std::vector<TableSaveResult>> all = catalog_->SaveAllToStore();
    if (!all.ok()) return WireResponse::Error(all.status());
    results = std::move(*all);
  } else {
    Result<uint64_t> generation = catalog_->SaveToStore(request.args[0]);
    if (!generation.ok()) return WireResponse::Error(generation.status());
    results.push_back(TableSaveResult{request.args[0], *generation, {}});
  }
  // Successes and failures are reported per table ("errors" only present
  // when some save failed), so one broken table no longer hides that the
  // others were checkpointed.
  JsonWriter w;
  w.BeginObject().Key("saved").BeginArray();
  for (const TableSaveResult& r : results) {
    if (!r.status.ok()) continue;
    w.BeginObject().Key("table").String(r.name);
    w.Key("generation").Uint(r.generation).EndObject();
  }
  w.EndArray();
  bool any_error = false;
  for (const TableSaveResult& r : results) {
    if (r.status.ok()) continue;
    if (!any_error) w.Key("errors").BeginArray();
    any_error = true;
    w.BeginObject().Key("table").String(r.name);
    w.Key("error").String(r.status.ToString()).EndObject();
  }
  if (any_error) w.EndArray();
  return WireResponse::Ok(w.EndObject().Take());
}

WireResponse DaemonHandler::HandlePersist(const WireRequest& request) {
  const std::string& name = request.args[0];
  const std::string& mode = request.args[1];
  bool on = false;
  if (EqualsIgnoreCase(mode, "on")) {
    on = true;
  } else if (!EqualsIgnoreCase(mode, "off")) {
    return WireResponse::Error(Status::InvalidArgument(
        "PERSIST mode must be 'on' or 'off', got '" + mode + "'"));
  }
  Status st = catalog_->SetPersist(name, on);
  if (!st.ok()) return WireResponse::Error(st);
  JsonWriter w;
  w.BeginObject().Key("table").String(name).Key("persist").Bool(on);
  return WireResponse::Ok(w.EndObject().Take());
}

WireResponse DaemonHandler::HandleHealth(const WireRequest&) {
  const auto dirty = RefreshMetrics();
  return WireResponse::Ok(RenderStatsJson({kHealthKeys, kConnectionKeys},
                                          *catalog_->metrics(), dirty));
}

WireResponse DaemonHandler::HandleHello(const WireRequest&) {
  // Capability negotiation. Entirely optional: a client that never sends
  // HELLO sees the exact pre-HELLO wire behavior, so old clients keep
  // working bit-identically. Feature flags:
  //   pipelining  — the server decodes and answers pipelined requests
  //                 (always true for the event-loop daemon).
  //   compression — a store is attached. Every store writes compressed
  //                 checkpoints (the only encoding), so the flag kept its
  //                 key and now just says whether checkpoints exist.
  //   degraded    — the flusher's degraded latch is currently set, so
  //                 mutating verbs may be refused with retry_after_ms.
  JsonWriter w;
  w.BeginObject().Key("server").String("ziggy");
  w.Key("protocol").Int(kProtocolVersion);
  w.Key("features").BeginObject().Key("pipelining").Bool(true);
  w.Key("compression").Bool(catalog_->HasStore());
  w.Key("degraded").Bool(catalog_->degraded()).EndObject();
  w.Key("limits").BeginObject();
  w.Key("max_line_bytes").Uint(limits_.max_line_bytes);
  w.Key("max_pipeline").Uint(limits_.max_pipeline).EndObject();
  w.Key("verbs").BeginArray();
  for (const VerbInfo& info : VerbTable()) w.String(info.name);
  return WireResponse::Ok(w.EndArray().EndObject().Take());
}

WireResponse DaemonHandler::HandleQuit(const WireRequest&) {
  quit_requested_ = true;
  JsonWriter w;
  w.BeginObject().Key("bye").Bool(true).EndObject();
  return WireResponse::Ok(w.Take());
}

WireResponse DaemonHandler::HandleMetrics(const WireRequest& request) {
  // Pull-model gauges (catalog tables, dirty ages, daemon connection
  // counts) are materialized right before the snapshot; everything else
  // in the registry is push-model and already current.
  RefreshMetrics();
  obs::MetricsRegistry* metrics = catalog_->metrics();
  if (request.args.empty() || EqualsIgnoreCase(request.args[0], "json")) {
    return WireResponse::Ok(metrics->RenderJson());
  }
  if (EqualsIgnoreCase(request.args[0], "prometheus") ||
      EqualsIgnoreCase(request.args[0], "prom")) {
    // The exposition text is multi-line; the line protocol carries it as
    // one JSON string (clients unescape it, same as VIEWS reports).
    JsonWriter w;
    return WireResponse::Ok(w.String(metrics->RenderPrometheus()).Take());
  }
  return WireResponse::Error(Status::InvalidArgument(
      "METRICS format must be 'json' or 'prometheus', got '" +
      request.args[0] + "'"));
}

std::vector<std::pair<std::string, uint64_t>> DaemonHandler::RefreshMetrics() {
  std::vector<std::pair<std::string, uint64_t>> dirty =
      catalog_->RefreshMetrics();
  if (metrics_refresh_) metrics_refresh_();
  return dirty;
}

WireResponse DaemonHandler::HandleClose(const WireRequest& request) {
  const std::string& name = request.args[0];
  auto it = sessions_.find(name);
  if (it != sessions_.end()) {
    (void)it->second.server->CloseSession(it->second.session_id);
    sessions_.erase(it);
  }
  Status st = catalog_->Close(name);
  if (!st.ok()) return WireResponse::Error(st);
  JsonWriter w;
  w.BeginObject().Key("table").String(name).Key("closed").Bool(true);
  return WireResponse::Ok(w.EndObject().Take());
}

}  // namespace ziggy
