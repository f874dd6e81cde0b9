#include "serve/daemon/handler.h"

#include <array>
#include <sstream>
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

std::string TableInfoJson(const std::string& name, size_t rows, size_t columns,
                          uint64_t generation) {
  std::ostringstream os;
  os << "{\"table\":\"" << JsonEscape(name) << "\",\"rows\":" << rows
     << ",\"columns\":" << columns << ",\"generation\":" << generation << "}";
  return os.str();
}

std::string ServeStatsJson(const ServeStats& st) {
  std::ostringstream os;
  os << "{\"generation\":" << st.generation
     << ",\"sessions_opened\":" << st.sessions_opened
     << ",\"requests\":" << st.requests << ",\"failures\":" << st.failures
     << ",\"sketch_exact_hits\":" << st.sketch_exact_hits
     << ",\"sketch_patched_hits\":" << st.sketch_patched_hits
     << ",\"sketch_misses\":" << st.sketch_misses
     << ",\"patched_delta_rows\":" << st.patched_delta_rows
     << ",\"appends\":" << st.appends
     << ",\"appended_rows\":" << st.appended_rows
     << ",\"cache_flushes\":" << st.cache_flushes
     << ",\"component_cache\":{\"hits\":" << st.component_cache_hits
     << ",\"misses\":" << st.component_cache_misses
     << ",\"evictions\":" << st.component_cache_evictions << "}"
     << ",\"sketch_cache\":{\"hits\":" << st.cache.hits
     << ",\"misses\":" << st.cache.misses
     << ",\"insertions\":" << st.cache.insertions
     << ",\"evictions\":" << st.cache.evictions
     << ",\"bytes_in_use\":" << st.cache.bytes_in_use
     << ",\"entries\":" << st.cache.entries << "}}";
  return os.str();
}

std::string CatalogStatsJson(const CatalogStats& st) {
  std::ostringstream os;
  os << "{\"tables\":" << st.tables << ",\"tables_opened\":" << st.tables_opened
     << ",\"tables_closed\":" << st.tables_closed
     << ",\"shared_budget_total_bytes\":" << st.shared_budget_total_bytes
     << ",\"shared_budget_used_bytes\":" << st.shared_budget_used_bytes
     << ",\"worker_pool_threads\":" << st.worker_pool_threads
     << ",\"store\":{\"attached\":" << (st.store_attached ? "true" : "false")
     << ",\"tables\":" << st.store_tables << ",\"opens\":" << st.store_opens
     << ",\"saves\":" << st.store_saves
     << ",\"full_checkpoints\":" << st.store_full_checkpoints
     << ",\"delta_checkpoints\":" << st.store_delta_checkpoints
     << ",\"compactions\":" << st.store_compactions
     << ",\"checkpoint_bytes\":" << st.store_checkpoint_bytes
     << ",\"checkpoint_raw_bytes\":" << st.store_checkpoint_raw_bytes
     << ",\"dict_pool\":{\"files\":" << st.store_dict_pool_files
     << ",\"bytes\":" << st.store_dict_pool_bytes
     << ",\"shared_hits\":" << st.store_dict_pool_shared_hits << "}}"
     << ",\"flusher\":{\"active\":" << (st.flusher_active ? "true" : "false")
     << ",\"dirty_tables\":" << st.dirty_tables
     << ",\"cycles\":" << st.flush_cycles
     << ",\"flushed_tables\":" << st.flushed_tables
     << ",\"failures\":" << st.flush_failures
     << ",\"backoff_tables\":" << st.flush_backoff_tables
     << ",\"degraded\":" << (st.degraded ? "true" : "false")
     << ",\"consecutive_failures\":" << st.consecutive_store_failures
     << ",\"queue_depth\":" << st.dirty_ages.size()
     << ",\"max_dirty_age_ms\":" << st.max_dirty_age_ms << ",\"dirty\":[";
  bool first = true;
  for (const auto& [table, age_ms] : st.dirty_ages) {
    if (!first) os << ",";
    first = false;
    os << "{\"table\":\"" << JsonEscape(table) << "\",\"age_ms\":" << age_ms
       << "}";
  }
  os << "]}}";
  return os.str();
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
  return WireResponse::Ok(TableInfoJson(name, state->table().num_rows(),
                                        state->table().num_columns(),
                                        state->generation()));
}

WireResponse DaemonHandler::HandleList(const WireRequest&) {
  std::ostringstream os;
  os << "{\"tables\":[";
  bool first = true;
  for (const CatalogTableInfo& info : catalog_->List()) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << JsonEscape(info.name)
       << "\",\"rows\":" << info.num_rows << ",\"columns\":" << info.num_columns
       << ",\"generation\":" << info.generation
       << ",\"sessions\":" << info.num_sessions << "}";
  }
  os << "]}";
  return WireResponse::Ok(os.str());
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
  if (views_only) {
    return WireResponse::Ok(
        "\"" + JsonEscape(RenderCharacterizationReport(*result, schema)) + "\"");
  }
  std::ostringstream os;
  os << "{\"table\":\"" << JsonEscape(table) << "\",\"sketches\":\""
     << SketchSourceToString(result->sketch_source)
     << "\",\"result\":" << CharacterizationToJson(*result, schema) << "}";
  return WireResponse::Ok(os.str());
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
  std::ostringstream os;
  os << "{\"table\":\"" << JsonEscape(name) << "\",\"appended_rows\":" << appended
     << ",\"generation\":" << *generation;
  if (!checkpoint.ok()) {
    os << ",\"checkpoint_error\":\"" << JsonEscape(checkpoint.ToString())
       << "\"";
  }
  os << "}";
  return WireResponse::Ok(os.str());
}

WireResponse DaemonHandler::HandleStats(const WireRequest& request) {
  if (request.args.empty()) {
    std::string json = CatalogStatsJson(catalog_->stats());
    if (connection_stats_json_) {
      // Splice the daemon's connection counters into the catalog object
      // (drop the closing brace, append the extra key).
      json.pop_back();
      json += ",\"connections\":" + connection_stats_json_() + "}";
    }
    return WireResponse::Ok(std::move(json));
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
  std::ostringstream os;
  os << "{\"saved\":[";
  bool first = true;
  for (const TableSaveResult& r : results) {
    if (!r.status.ok()) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"table\":\"" << JsonEscape(r.name)
       << "\",\"generation\":" << r.generation << "}";
  }
  os << "]";
  bool any_error = false;
  for (const TableSaveResult& r : results) {
    if (r.status.ok()) continue;
    os << (any_error ? "," : ",\"errors\":[");
    any_error = true;
    os << "{\"table\":\"" << JsonEscape(r.name) << "\",\"error\":\""
       << JsonEscape(r.status.ToString()) << "\"}";
  }
  if (any_error) os << "]";
  os << "}";
  return WireResponse::Ok(os.str());
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
  return WireResponse::Ok("{\"table\":\"" + JsonEscape(name) +
                          "\",\"persist\":" + (on ? "true" : "false") + "}");
}

WireResponse DaemonHandler::HandleHealth(const WireRequest&) {
  const CatalogHealth health = catalog_->Health();
  std::ostringstream os;
  os << "{\"status\":\"" << (health.degraded ? "degraded" : "ok")
     << "\",\"tables\":" << health.tables
     << ",\"dirty_tables\":" << health.dirty_tables
     << ",\"flush_backoff_tables\":" << health.backoff_tables
     << ",\"consecutive_failures\":" << health.consecutive_failures
     << ",\"flush_lag_ms\":" << health.flush_lag_ms
     << ",\"retry_after_ms\":" << health.retry_after_ms;
  if (connection_stats_json_) {
    os << ",\"connections\":" << connection_stats_json_();
  }
  os << "}";
  return WireResponse::Ok(os.str());
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
  const CatalogStats stats = catalog_->stats();
  const CatalogHealth health = catalog_->Health();
  std::ostringstream os;
  os << "{\"server\":\"ziggy\",\"protocol\":" << kProtocolVersion
     << ",\"features\":{\"pipelining\":true,\"compression\":"
     << (stats.store_attached ? "true" : "false")
     << ",\"degraded\":" << (health.degraded ? "true" : "false")
     << "},\"limits\":{\"max_line_bytes\":" << limits_.max_line_bytes
     << ",\"max_pipeline\":" << limits_.max_pipeline << "},\"verbs\":[";
  bool first = true;
  for (const VerbInfo& info : VerbTable()) {
    os << (first ? "\"" : ",\"") << info.name << "\"";
    first = false;
  }
  os << "]}";
  return WireResponse::Ok(os.str());
}

WireResponse DaemonHandler::HandleQuit(const WireRequest&) {
  quit_requested_ = true;
  return WireResponse::Ok("{\"bye\":true}");
}

WireResponse DaemonHandler::HandleMetrics(const WireRequest& request) {
  // Pull-model gauges (catalog tables, dirty ages, daemon connection
  // counts) are materialized right before the snapshot; everything else
  // in the registry is push-model and already current.
  catalog_->RefreshMetrics();
  if (metrics_refresh_) metrics_refresh_();
  obs::MetricsRegistry* metrics = catalog_->metrics();
  if (request.args.empty() || EqualsIgnoreCase(request.args[0], "json")) {
    return WireResponse::Ok(metrics->RenderJson());
  }
  if (EqualsIgnoreCase(request.args[0], "prometheus") ||
      EqualsIgnoreCase(request.args[0], "prom")) {
    // The exposition text is multi-line; the line protocol carries it as
    // one JSON string (clients unescape it, same as VIEWS reports).
    return WireResponse::Ok(
        "\"" + JsonEscape(metrics->RenderPrometheus()) + "\"");
  }
  return WireResponse::Error(Status::InvalidArgument(
      "METRICS format must be 'json' or 'prometheus', got '" +
      request.args[0] + "'"));
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
  return WireResponse::Ok("{\"table\":\"" + JsonEscape(name) +
                          "\",\"closed\":true}");
}

}  // namespace ziggy
