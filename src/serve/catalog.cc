#include "serve/catalog.h"

#include <algorithm>
#include <chrono>

#include "common/parallel.h"
#include "obs/trace.h"
#include "persist/manifest.h"

namespace ziggy {

ServerCatalog::ServerCatalog(CatalogOptions options)
    : options_(std::move(options)),
      shared_budget_(
          std::make_shared<CacheBudget>(options_.total_cache_budget_bytes)),
      metrics_(options_.metrics != nullptr
                   ? options_.metrics
                   : std::make_shared<obs::MetricsRegistry>()) {
  store_save_us_ = metrics_->histogram("ziggy_store_save_us");
  store_load_us_ = metrics_->histogram("ziggy_store_load_us");
  tables_opened_ = metrics_->counter("ziggy_catalog_tables_opened_total");
  tables_closed_ = metrics_->counter("ziggy_catalog_tables_closed_total");
  store_opens_ = metrics_->counter("ziggy_store_opens_total");
  store_saves_ = metrics_->counter("ziggy_store_saves_total");
  flush_cycles_ = metrics_->counter("ziggy_flusher_cycles_total");
  flushed_tables_ = metrics_->counter("ziggy_flusher_flushed_tables_total");
  flush_failures_ = metrics_->counter("ziggy_flusher_failures_total");
  // The OPEN spans are recorded by LoadTableFromSource and
  // ZiggyServer::Create / CreateFromState; registering them here lists
  // all four OPEN spans in METRICS from boot.
  metrics_->histogram("ziggy_open_csv_parse_us");
  metrics_->histogram("ziggy_open_profile_us");
  metrics_->histogram("ziggy_open_dendrogram_us");
}

ServerCatalog::~ServerCatalog() { StopFlusher(); }

ServeOptions ServerCatalog::DerivedServeOptions() const {
  ServeOptions serve = options_.serve;
  serve.shared_cache_budget = shared_budget_;
  serve.metrics = metrics_;
  return serve;
}

Status ServerCatalog::Publish(const std::string& name,
                              std::shared_ptr<ZiggyServer> server,
                              uint64_t lineage) {
  MutexLock lock(mu_);
  if (tables_.size() >= options_.max_tables) {
    return Status::FailedPrecondition(
        "catalog is full (" + std::to_string(options_.max_tables) + " tables)");
  }
  for (const Served& existing : tables_) {
    if (existing.name == name) {
      return Status::AlreadyExists("table already served: " + name);
    }
  }
  tables_.push_back(Served{name, std::move(server), lineage});
  std::sort(tables_.begin(), tables_.end(),
            [](const Served& a, const Served& b) { return a.name < b.name; });
  tables_opened_->Add();
  return Status::OK();
}

Result<std::shared_ptr<ZiggyServer>> ServerCatalog::Open(
    const std::string& name, Table table) {
  if (!IsValidStoreTableName(name)) {
    return Status::InvalidArgument("invalid table name: \"" + name + "\"");
  }
  {
    MutexLock lock(mu_);
    if (tables_.size() >= options_.max_tables) {
      return Status::FailedPrecondition(
          "catalog is full (" + std::to_string(options_.max_tables) +
          " tables)");
    }
    for (const Served& existing : tables_) {
      if (existing.name == name) {
        return Status::AlreadyExists("table already served: " + name);
      }
    }
  }

  // Profiling runs outside the catalog lock: it is the expensive step, and
  // OPENs of different tables should overlap. The duplicate-name check is
  // re-run by Publish().
  ZIGGY_ASSIGN_OR_RETURN(
      std::unique_ptr<ZiggyServer> server,
      ZiggyServer::Create(std::move(table), DerivedServeOptions()));
  std::shared_ptr<ZiggyServer> shared = std::move(server);
  ZIGGY_RETURN_NOT_OK(Publish(
      name, shared, next_lineage_.fetch_add(1, std::memory_order_relaxed)));
  return shared;
}

Result<std::shared_ptr<ZiggyServer>> ServerCatalog::Find(
    const std::string& name) const {
  MutexLock lock(mu_);
  for (const Served& existing : tables_) {
    if (existing.name == name) return existing.server;
  }
  return Status::NotFound("no such table: " + name);
}

uint64_t ServerCatalog::LineageOf(const std::string& name,
                                  const ZiggyServer* server) const {
  MutexLock lock(mu_);
  for (const Served& existing : tables_) {
    if (existing.name == name && existing.server.get() == server) {
      return existing.lineage;
    }
  }
  return 0;
}

Status ServerCatalog::AttachStore(const std::string& dir) {
  if (store_ != nullptr) {
    return Status::FailedPrecondition("a store is already attached");
  }
  ZIGGY_ASSIGN_OR_RETURN(store_, ZiggyStore::Open(dir, options_.store));
  if (options_.flush_interval_ms > 0) {
    MutexLock lock(flush_mu_);
    flusher_stop_ = false;
    flusher_ = std::thread([this] { FlusherLoop(); });
  }
  return Status::OK();
}

bool ServerCatalog::StoreHas(const std::string& name) const {
  return store_ != nullptr && store_->Has(name);
}

Result<std::shared_ptr<ZiggyServer>> ServerCatalog::OpenFromStore(
    const std::string& name) {
  if (store_ == nullptr) return Status::FailedPrecondition("no store attached");
  if (!IsValidStoreTableName(name)) {
    return Status::InvalidArgument("invalid table name: \"" + name + "\"");
  }
  // The load runs outside the catalog lock, like Open()'s profiling. The
  // lineage is minted first and stamped onto the store's persisted-shape
  // bookkeeping, so the first append checkpoint of this server can
  // already be an O(delta) segment on top of the chain it just loaded.
  const uint64_t lineage =
      next_lineage_.fetch_add(1, std::memory_order_relaxed);
  Result<StoredTable> stored = Status::Internal("unreachable");
  {
    obs::TraceSpan load_span("store_load", metrics_->clock(), store_load_us_);
    stored = store_->LoadTable(name, lineage);
  }
  ZIGGY_RETURN_NOT_OK(stored.status());
  ZIGGY_ASSIGN_OR_RETURN(
      std::unique_ptr<ZiggyServer> server,
      ZiggyServer::CreateFromState(std::move(stored->table), stored->generation,
                                   std::move(stored->profile),
                                   DerivedServeOptions()));
  std::shared_ptr<ZiggyServer> shared = std::move(server);
  ZIGGY_RETURN_NOT_OK(Publish(name, shared, lineage));
  store_opens_->Add();
  return shared;
}

Result<uint64_t> ServerCatalog::SaveServerToStore(const std::string& name,
                                                  ZiggyServer* server,
                                                  uint64_t lineage,
                                                  bool only_if_newer) {
  if (store_ == nullptr) return Status::FailedPrecondition("no store attached");
  const std::shared_ptr<const ServingState> state = server->state();
  if (only_if_newer) {
    // ">= — not ==": a concurrent append may have checkpointed a
    // generation PAST ours between our state() read and this save; writing
    // our older snapshot over it would silently un-persist those rows.
    // The stored generation is durable either way, so skip.
    Result<uint64_t> stored = store_->StoredGeneration(name);
    if (stored.ok() && *stored >= state->generation()) {
      return *stored;
    }
  }
  {
    obs::TraceSpan save_span("store_save", metrics_->clock(), store_save_us_);
    ZIGGY_RETURN_NOT_OK(store_->SaveTable(name, state->table(),
                                          state->generation(), *state->profile,
                                          lineage));
  }
  store_saves_->Add();
  return state->generation();
}

Status ServerCatalog::DegradedError() const {
  uint64_t retry_after_ms = 0;
  {
    MutexLock lock(flush_mu_);
    retry_after_ms = RetryAfterMs();
  }
  if (retry_after_ms == 0) retry_after_ms = EffectiveBackoffInitialMs();
  return Status::Unavailable(
      "store degraded (" +
      std::to_string(
          consecutive_store_failures_.load(std::memory_order_relaxed)) +
      " consecutive checkpoint failures); serving reads only; retry after " +
      std::to_string(retry_after_ms) + " ms");
}

Result<uint64_t> ServerCatalog::SaveToStore(const std::string& name,
                                            bool only_if_newer) {
  if (store_ == nullptr) return Status::FailedPrecondition("no store attached");
  if (degraded_.load(std::memory_order_relaxed)) return DegradedError();
  ZIGGY_ASSIGN_OR_RETURN(std::shared_ptr<ZiggyServer> server, Find(name));
  return SaveServerToStore(name, server.get(),
                           LineageOf(name, server.get()), only_if_newer);
}

Result<std::vector<TableSaveResult>> ServerCatalog::SaveAllToStore() {
  if (store_ == nullptr) return Status::FailedPrecondition("no store attached");
  if (degraded_.load(std::memory_order_relaxed)) return DegradedError();
  // Every table gets its save attempt: one broken table (bad name for the
  // store, disk trouble mid-save) must not leave the tables after it in
  // LIST order unsaved.
  std::vector<TableSaveResult> results;
  for (const CatalogTableInfo& info : List()) {
    TableSaveResult result;
    result.name = info.name;
    Result<uint64_t> generation = SaveToStore(info.name);
    if (generation.ok()) {
      result.generation = *generation;
    } else {
      result.status = generation.status();
    }
    results.push_back(std::move(result));
  }
  return results;
}

Status ServerCatalog::SetPersist(const std::string& name, bool on) {
  if (store_ == nullptr) return Status::FailedPrecondition("no store attached");
  ZIGGY_RETURN_NOT_OK(Find(name).status());
  MutexLock lock(mu_);
  if (on) {
    persist_tables_.insert(name);
  } else {
    persist_tables_.erase(name);
  }
  return Status::OK();
}

void ServerCatalog::MarkDirty(const std::string& name, uint64_t generation) {
  MutexLock lock(flush_mu_);
  auto [it, inserted] = dirty_.try_emplace(
      name, DirtyEntry{generation, metrics_->clock()->NowMicros()});
  if (!inserted) {
    it->second.generation = std::max(it->second.generation, generation);
  }
}

size_t ServerCatalog::EffectiveBackoffInitialMs() const {
  if (options_.flush_backoff_initial_ms > 0) {
    return options_.flush_backoff_initial_ms;
  }
  return std::max<size_t>(1, options_.flush_interval_ms * 2);
}

void ServerCatalog::NoteStoreSuccess(const std::string& name) {
  {
    MutexLock lock(flush_mu_);
    backoff_.erase(name);
    probe_backoff_ = BackoffEntry{};
  }
  consecutive_store_failures_.store(0, std::memory_order_relaxed);
  degraded_.store(false, std::memory_order_relaxed);
}

void ServerCatalog::NoteStoreFailure(const std::string& name,
                                     uint64_t generation, bool requeue) {
  flush_failures_->Add();
  const uint64_t consecutive =
      consecutive_store_failures_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (options_.degraded_after_failures > 0 &&
      consecutive >= options_.degraded_after_failures) {
    degraded_.store(true, std::memory_order_relaxed);
  }
  if (!requeue) return;
  if (generation > 0) MarkDirty(name, generation);
  // Exponential per-table backoff: the next attempt for this table (or
  // for the degraded probe, name "") waits out initial * 2^failures,
  // capped — a persistently failing store costs one save attempt per
  // window, never one per interval.
  MutexLock lock(flush_mu_);
  BackoffEntry& entry = name.empty() ? probe_backoff_ : backoff_[name];
  const uint64_t shift = std::min<uint32_t>(entry.failures, 20);
  const uint64_t delay_ms =
      std::min<uint64_t>(EffectiveBackoffInitialMs() << shift,
                         options_.flush_backoff_max_ms);
  entry.failures++;
  entry.next_attempt =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(delay_ms);
}

size_t ServerCatalog::FlushDirty(std::map<std::string, uint64_t> batch,
                                 bool requeue_failures) {
  size_t flushed = 0;
  for (const auto& [name, generation] : batch) {
    Result<std::shared_ptr<ZiggyServer>> server = Find(name);
    if (!server.ok()) continue;  // closed since it was marked; Close drained
    Result<uint64_t> saved =
        SaveServerToStore(name, server->get(),
                          LineageOf(name, server->get()),
                          /*only_if_newer=*/true);
    if (saved.ok()) {
      ++flushed;
      flushed_tables_->Add();
      NoteStoreSuccess(name);
    } else {
      NoteStoreFailure(name, generation, requeue_failures);
    }
  }
  return flushed;
}

void ServerCatalog::ProbeStore() {
  // Nothing dirty but the catalog is degraded: nothing would ever touch
  // the store again, so the mode could never clear. Write a real
  // checkpoint of one served table as a probe (only_if_newer=false — a
  // generation-match skip would not prove the disk works).
  const std::vector<CatalogTableInfo> tables = List();
  if (tables.empty()) {
    // No tables: nothing a save could fail on; the failing state is gone.
    NoteStoreSuccess("");
    return;
  }
  const std::string& name = tables.front().name;
  Result<std::shared_ptr<ZiggyServer>> server = Find(name);
  if (!server.ok()) return;  // raced with Close; try next cycle
  Result<uint64_t> saved =
      SaveServerToStore(name, server->get(), LineageOf(name, server->get()),
                        /*only_if_newer=*/false);
  if (saved.ok()) {
    NoteStoreSuccess(name);
  } else {
    NoteStoreFailure("", 0, /*requeue=*/true);
  }
}

void ServerCatalog::FlusherLoop() {
  const auto interval = std::chrono::milliseconds(options_.flush_interval_ms);
  MutexLock lock(flush_mu_);
  while (true) {
    flush_cv_.WaitFor(flush_mu_, interval,
                      [this]() ZIGGY_REQUIRES(flush_mu_) { return flusher_stop_; });
    if (flusher_stop_) return;  // StopFlusher drains what remains
    const auto now = std::chrono::steady_clock::now();
    // Take only the dirty tables whose backoff window (if any) has
    // elapsed; the rest stay queued without costing a save attempt.
    std::map<std::string, uint64_t> batch;
    for (const auto& [name, entry] : dirty_) {
      const auto it = backoff_.find(name);
      if (it != backoff_.end() && now < it->second.next_attempt) continue;
      batch.emplace(name, entry.generation);
    }
    for (const auto& [name, generation] : batch) dirty_.erase(name);
    const bool probe = batch.empty() && dirty_.empty() &&
                       degraded_.load(std::memory_order_relaxed) &&
                       now >= probe_backoff_.next_attempt;
    if (batch.empty() && !probe) continue;
    lock.Unlock();
    if (probe) {
      ProbeStore();
    } else {
      flush_cycles_->Add();
      FlushDirty(std::move(batch), /*requeue_failures=*/true);
    }
    lock.Lock();
  }
}

void ServerCatalog::StopFlusher() {
  std::thread flusher;
  std::map<std::string, DirtyEntry> remaining;
  {
    MutexLock lock(flush_mu_);
    flusher_stop_ = true;
    flusher = std::move(flusher_);
    remaining = std::move(dirty_);
    dirty_.clear();
    backoff_.clear();
    probe_backoff_ = BackoffEntry{};
  }
  flush_cv_.NotifyAll();
  if (flusher.joinable()) flusher.join();
  // Drain: a clean shutdown must not lose appended rows to a pending
  // flush — even tables mid-backoff get their final attempt. Failures are
  // final here (no thread left to retry them).
  if (!remaining.empty()) {
    std::map<std::string, uint64_t> batch;
    for (const auto& [name, entry] : remaining) {
      batch.emplace(name, entry.generation);
    }
    FlushDirty(std::move(batch), /*requeue_failures=*/false);
  }
}

Result<uint64_t> ServerCatalog::Append(const std::string& name,
                                       const Table& rows,
                                       Status* checkpoint_status) {
  if (checkpoint_status != nullptr) *checkpoint_status = Status::OK();
  // Degraded read-only mode: rejecting BEFORE the in-memory append keeps
  // served state and store convergent — accepting rows we already know we
  // cannot checkpoint would widen the loss window a crash exposes.
  if (degraded_.load(std::memory_order_relaxed)) return DegradedError();
  ZIGGY_ASSIGN_OR_RETURN(std::shared_ptr<ZiggyServer> server, Find(name));
  ZIGGY_RETURN_NOT_OK(server->Append(rows));
  const uint64_t generation = server->state()->generation();
  bool persist = options_.checkpoint_on_append;
  {
    MutexLock lock(mu_);
    persist = persist || persist_tables_.count(name) > 0;
  }
  if (persist && store_ != nullptr) {
    // Checkpoint the server the rows were applied to — but only while the
    // catalog still maps the name to it. If a concurrent CLOSE+OPEN
    // replaced the name, persisting the detached server would clobber the
    // replacement's checkpoint, and persisting the replacement would
    // falsely report these rows as durable; surface the skip instead.
    Status st = Status::OK();
    uint64_t lineage = LineageOf(name, server.get());
    if (lineage != 0 && options_.flush_interval_ms > 0) {
      // Durability moves off the request thread: mark dirty and let the
      // flusher cut the delta segment within one interval. Mark FIRST,
      // re-check the mapping after: if the re-check still sees us, any
      // concurrent Close starts its synchronous save after our append
      // landed in the server state, so the rows cannot fall between the
      // flusher (whose Find would miss a closed name) and Close's save.
      MarkDirty(name, generation);
      lineage = LineageOf(name, server.get());
    } else if (lineage != 0) {
      // only_if_newer: a concurrent append may already have checkpointed
      // a generation at or past ours; skipping is cheaper, just as
      // durable.
      st = SaveServerToStore(name, server.get(), lineage,
                             /*only_if_newer=*/true)
               .status();
    }
    if (lineage == 0) {
      st = Status::FailedPrecondition(
          "table was replaced during the append; checkpoint skipped");
    }
    if (checkpoint_status != nullptr) *checkpoint_status = st;
  }
  return generation;
}

Status ServerCatalog::Close(const std::string& name) {
  // With the flusher active, complete the table's durability
  // synchronously BEFORE unpublishing: after the erase the flusher can no
  // longer resolve the name (a dirty entry already moved into its
  // in-flight batch would be silently skipped), and "closing stops
  // serving" must not also mean "quietly drops the last appended rows".
  // Saving while the name still maps to this server also means a
  // concurrent re-OPEN cannot have its fresh checkpoint clobbered by us.
  // only_if_newer makes this a cheap skip when nothing is pending.
  if (store_ != nullptr && options_.flush_interval_ms > 0) {
    std::shared_ptr<ZiggyServer> server;
    uint64_t lineage = 0;
    bool persisted = options_.checkpoint_on_append;
    {
      MutexLock lock(mu_);
      persisted = persisted || persist_tables_.count(name) > 0;
      for (const Served& existing : tables_) {
        if (existing.name == name) {
          server = existing.server;
          lineage = existing.lineage;
          break;
        }
      }
    }
    {
      MutexLock lock(flush_mu_);
      dirty_.erase(name);
    }
    if (server != nullptr && persisted) {
      Result<uint64_t> saved = SaveServerToStore(name, server.get(), lineage,
                                                 /*only_if_newer=*/true);
      // Success here may be an only_if_newer skip (no disk touched), so it
      // proves nothing about a degraded store — only failures count.
      if (!saved.ok()) {
        NoteStoreFailure(name, 0, /*requeue=*/false);
      }
    }
  }

  MutexLock lock(mu_);
  persist_tables_.erase(name);
  for (auto it = tables_.begin(); it != tables_.end(); ++it) {
    if (it->name == name) {
      // Release the table's sketch bytes from the shared ledger NOW: a
      // connection holding a stale server handle would otherwise keep a
      // dead table's cache charged against live tables until it next
      // touches the name or disconnects. The server itself stays usable
      // for such in-flight handles — just with a cold cache.
      it->server->FlushSketchCache();
      // Fold the retiring server's sketch-cache counters into the
      // catalog-lifetime totals before it leaves the map: a re-OPEN of
      // this name starts a fresh server whose counters restart at zero,
      // and without the carry a rate computed from successive METRICS
      // scrapes would go backwards across the swap. (After the flush, so
      // any counts the flush itself produced are carried too.)
      const CacheStats cache = it->server->stats().cache;
      retired_cache_hits_.fetch_add(cache.hits, std::memory_order_relaxed);
      retired_cache_misses_.fetch_add(cache.misses, std::memory_order_relaxed);
      retired_cache_insertions_.fetch_add(cache.insertions,
                                          std::memory_order_relaxed);
      retired_cache_evictions_.fetch_add(cache.evictions,
                                         std::memory_order_relaxed);
      tables_.erase(it);
      tables_closed_->Add();
      return Status::OK();
    }
  }
  return Status::NotFound("no such table: " + name);
}

std::vector<CatalogTableInfo> ServerCatalog::List() const {
  std::vector<CatalogTableInfo> out;
  MutexLock lock(mu_);
  out.reserve(tables_.size());
  for (const Served& served : tables_) {
    CatalogTableInfo info;
    info.name = served.name;
    const auto state = served.server->state();
    info.num_rows = state->table().num_rows();
    info.num_columns = state->table().num_columns();
    info.generation = state->generation();
    info.num_sessions = served.server->num_sessions();
    out.push_back(std::move(info));
  }
  return out;
}

uint64_t ServerCatalog::RetryAfterMs() const {
  if (!degraded_.load(std::memory_order_relaxed)) return 0;
  // When is the next save attempt (per-table retry or store probe) due?
  // Before that, a retried write is guaranteed another Unavailable.
  const auto now = std::chrono::steady_clock::now();
  auto soonest = probe_backoff_.next_attempt;
  for (const auto& [name, entry] : backoff_) {
    soonest = std::min(soonest, entry.next_attempt);
  }
  const auto wait =
      std::chrono::duration_cast<std::chrono::milliseconds>(soonest - now)
          .count();
  return wait > 0 ? static_cast<uint64_t>(wait) : EffectiveBackoffInitialMs();
}

size_t ServerCatalog::num_tables() const {
  MutexLock lock(mu_);
  return tables_.size();
}

ServerCatalog::SketchCacheTotals ServerCatalog::CacheTotals() const {
  SketchCacheTotals totals;
  totals.hits = retired_cache_hits_.load(std::memory_order_relaxed);
  totals.misses = retired_cache_misses_.load(std::memory_order_relaxed);
  totals.insertions = retired_cache_insertions_.load(std::memory_order_relaxed);
  totals.evictions = retired_cache_evictions_.load(std::memory_order_relaxed);
  MutexLock lock(mu_);
  for (const Served& served : tables_) {
    const CacheStats cache = served.server->stats().cache;
    totals.hits += cache.hits;
    totals.misses += cache.misses;
    totals.insertions += cache.insertions;
    totals.evictions += cache.evictions;
  }
  return totals;
}

std::vector<std::pair<std::string, uint64_t>>
ServerCatalog::RefreshMetrics() {
  obs::MetricsRegistry* m = metrics_.get();
  const auto set = [m](const std::string& name, uint64_t value) {
    m->gauge(name)->Set(static_cast<int64_t>(value));
  };
  obs::RefreshProcessGauges(m);
  set("ziggy_catalog_tables", num_tables());
  set("ziggy_catalog_shared_budget_total_bytes", shared_budget_->total_bytes());
  set("ziggy_catalog_shared_budget_used_bytes", shared_budget_->used_bytes());
  set("ziggy_catalog_worker_pool_threads", SharedWorkerPool().num_threads());
  StoreStats store;
  size_t store_tables = 0;
  if (store_ != nullptr) {
    store = store_->stats();
    store_tables = store_->List().size();
  }
  set("ziggy_store_attached", store_ != nullptr ? 1 : 0);
  set("ziggy_store_tables", store_tables);
  set("ziggy_store_full_checkpoints", store.full_checkpoints);
  set("ziggy_store_delta_checkpoints", store.delta_checkpoints);
  set("ziggy_store_compactions", store.compactions);
  set("ziggy_store_checkpoint_bytes", store.checkpoint_bytes);
  set("ziggy_store_checkpoint_raw_bytes", store.checkpoint_raw_bytes);
  set("ziggy_store_dict_pool_files", store.dict_pool_files);
  set("ziggy_store_dict_pool_bytes", store.dict_pool_bytes);
  set("ziggy_store_dict_pool_shared_hits", store.dict_pool_shared_hits);
  // Summed under mu_, so computed before flush_mu_ (the two never nest).
  const SketchCacheTotals totals = CacheTotals();

  const uint64_t now_us = m->clock()->NowMicros();
  std::vector<std::pair<std::string, uint64_t>> dirty;
  MutexLock lock(flush_mu_);
  // The registry's counters mirror the cache totals via AdvanceTo: a
  // racing Close could momentarily make the recomputed total dip, and
  // AdvanceTo keeps the published series from decreasing. flush_mu_
  // serializes the carries of concurrent refreshes.
  m->counter("ziggy_sketch_cache_hits_total")->AdvanceTo(totals.hits);
  m->counter("ziggy_sketch_cache_misses_total")->AdvanceTo(totals.misses);
  m->counter("ziggy_sketch_cache_insertions_total")
      ->AdvanceTo(totals.insertions);
  m->counter("ziggy_sketch_cache_evictions_total")
      ->AdvanceTo(totals.evictions);
  set("ziggy_flusher_active", flusher_.joinable() && !flusher_stop_ ? 1 : 0);
  set("ziggy_flusher_queue_depth", dirty_.size());
  set("ziggy_flusher_backoff_tables", backoff_.size());
  set("ziggy_flusher_degraded", degraded_.load(std::memory_order_relaxed));
  set("ziggy_flusher_consecutive_failures",
      consecutive_store_failures_.load(std::memory_order_relaxed));
  set("ziggy_flusher_retry_after_ms", RetryAfterMs());
  uint64_t max_age_ms = 0;
  std::set<std::string> still_dirty;
  for (const auto& [name, entry] : dirty_) {  // map order == name order
    const uint64_t age_ms =
        now_us > entry.marked_us ? (now_us - entry.marked_us) / 1000 : 0;
    max_age_ms = std::max(max_age_ms, age_ms);
    set("ziggy_table_dirty_age_ms{table=\"" + name + "\"}", age_ms);
    still_dirty.insert(name);
    dirty.emplace_back(name, age_ms);
  }
  set("ziggy_flusher_max_dirty_age_ms", max_age_ms);
  // Zero the gauge of any table that flushed clean since the last
  // refresh — a stale age would read as a stuck flusher.
  for (const std::string& name : dirty_gauge_tables_) {
    if (still_dirty.count(name) == 0) {
      set("ziggy_table_dirty_age_ms{table=\"" + name + "\"}", 0);
    }
  }
  dirty_gauge_tables_ = std::move(still_dirty);
  return dirty;
}

}  // namespace ziggy
