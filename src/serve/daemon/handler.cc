#include "serve/daemon/handler.h"

#include <array>
#include <initializer_list>
#include <span>
#include <sstream>
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
  std::string out = "{";
  std::vector<std::string_view> open;  // path of the object being written
  bool comma = false;
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
      for (; open.size() > common; open.pop_back()) out += '}';
      for (; open.size() < parents.size(); comma = false) {
        if (comma) out += ',';
        open.push_back(parents[open.size()]);
        out.append("\"").append(open.back()).append("\":{");
      }
      if (comma) out += ',';
      comma = true;
      out.append("\"").append(key).append("\":");
      switch (row.source) {
        case kCounter:
          out += std::to_string(metrics.CounterValue(row.series));
          break;
        case kGauge:
          out += std::to_string(metrics.GaugeValue(row.series));
          break;
        case kFlag:
          out += metrics.GaugeValue(row.series) != 0 ? "true" : "false";
          break;
        case kStatus:
          out += metrics.GaugeValue(row.series) != 0 ? "\"degraded\""
                                                     : "\"ok\"";
          break;
        case kDirty:
          out += '[';
          for (size_t i = 0; i < dirty.size(); ++i) {
            if (i > 0) out += ',';
            out += "{\"table\":\"" + JsonEscape(dirty[i].first) +
                   "\",\"age_ms\":" + std::to_string(dirty[i].second) + "}";
          }
          out += ']';
          break;
      }
    }
  }
  out.append(open.size() + 1, '}');
  return out;
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
  std::ostringstream os;
  os << "{\"server\":\"ziggy\",\"protocol\":" << kProtocolVersion
     << ",\"features\":{\"pipelining\":true,\"compression\":"
     << (catalog_->HasStore() ? "true" : "false")
     << ",\"degraded\":" << (catalog_->degraded() ? "true" : "false")
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
  RefreshMetrics();
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
  return WireResponse::Ok("{\"table\":\"" + JsonEscape(name) +
                          "\",\"closed\":true}");
}

}  // namespace ziggy
