#include "serve/catalog.h"

#include <algorithm>
#include <chrono>

#include "common/parallel.h"
#include "obs/trace.h"

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
  // The OPEN spans are recorded by LoadTableFromSource and
  // ZiggyServer::Create / CreateFromState; registering them here lists
  // all four OPEN spans in METRICS from boot.
  metrics_->histogram("ziggy_open_csv_parse_us");
  metrics_->histogram("ziggy_open_profile_us");
  metrics_->histogram("ziggy_open_dendrogram_us");
}

ServerCatalog::~ServerCatalog() { StopFlusher(); }

bool ServerCatalog::IsValidTableName(const std::string& name) {
  if (name.empty() || name.size() > 256) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

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
  ++tables_opened_;
  return Status::OK();
}

Result<std::shared_ptr<ZiggyServer>> ServerCatalog::Open(
    const std::string& name, Table table) {
  if (!IsValidTableName(name)) {
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
  if (!IsValidTableName(name)) {
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
  store_opens_.fetch_add(1, std::memory_order_relaxed);
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
  store_saves_.fetch_add(1, std::memory_order_relaxed);
  return state->generation();
}

Status ServerCatalog::DegradedError() const {
  uint64_t retry_after_ms = Health().retry_after_ms;
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
  flush_failures_.fetch_add(1, std::memory_order_relaxed);
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
      flushed_tables_.fetch_add(1, std::memory_order_relaxed);
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
      flush_cycles_.fetch_add(1, std::memory_order_relaxed);
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
      ++tables_closed_;
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

CatalogStats ServerCatalog::stats() const {
  CatalogStats st;
  {
    MutexLock lock(mu_);
    st.tables = tables_.size();
    st.tables_opened = tables_opened_;
    st.tables_closed = tables_closed_;
  }
  st.shared_budget_total_bytes = shared_budget_->total_bytes();
  st.shared_budget_used_bytes = shared_budget_->used_bytes();
  st.worker_pool_threads = SharedWorkerPool().num_threads();
  if (store_ != nullptr) {
    st.store_attached = true;
    st.store_tables = store_->List().size();
    st.store_opens = store_opens_.load(std::memory_order_relaxed);
    st.store_saves = store_saves_.load(std::memory_order_relaxed);
    const StoreStats store_stats = store_->stats();
    st.store_full_checkpoints = store_stats.full_checkpoints;
    st.store_delta_checkpoints = store_stats.delta_checkpoints;
    st.store_compactions = store_stats.compactions;
    st.store_checkpoint_bytes = store_stats.checkpoint_bytes;
    st.store_checkpoint_raw_bytes = store_stats.checkpoint_raw_bytes;
    st.store_dict_pool_files = store_stats.dict_pool_files;
    st.store_dict_pool_bytes = store_stats.dict_pool_bytes;
    st.store_dict_pool_shared_hits = store_stats.dict_pool_shared_hits;
  }
  {
    const uint64_t now_us = metrics_->clock()->NowMicros();
    MutexLock lock(flush_mu_);
    st.flusher_active = flusher_.joinable() && !flusher_stop_;
    st.dirty_tables = dirty_.size();
    st.flush_backoff_tables = backoff_.size();
    for (const auto& [name, entry] : dirty_) {  // map order == name order
      const uint64_t age_ms =
          now_us > entry.marked_us ? (now_us - entry.marked_us) / 1000 : 0;
      st.dirty_ages.emplace_back(name, age_ms);
      st.max_dirty_age_ms = std::max(st.max_dirty_age_ms, age_ms);
    }
  }
  st.flush_cycles = flush_cycles_.load(std::memory_order_relaxed);
  st.flushed_tables = flushed_tables_.load(std::memory_order_relaxed);
  st.flush_failures = flush_failures_.load(std::memory_order_relaxed);
  st.degraded = degraded_.load(std::memory_order_relaxed);
  st.consecutive_store_failures =
      consecutive_store_failures_.load(std::memory_order_relaxed);
  return st;
}

CatalogHealth ServerCatalog::Health() const {
  CatalogHealth health;
  health.degraded = degraded_.load(std::memory_order_relaxed);
  health.consecutive_failures =
      consecutive_store_failures_.load(std::memory_order_relaxed);
  health.tables = num_tables();
  const auto now = std::chrono::steady_clock::now();
  const uint64_t now_us = metrics_->clock()->NowMicros();
  MutexLock lock(flush_mu_);
  health.dirty_tables = dirty_.size();
  health.backoff_tables = backoff_.size();
  for (const auto& [name, entry] : dirty_) {
    const uint64_t lag_ms =
        now_us > entry.marked_us ? (now_us - entry.marked_us) / 1000 : 0;
    health.flush_lag_ms = std::max(health.flush_lag_ms, lag_ms);
  }
  if (health.degraded) {
    // When is the next save attempt (per-table retry or store probe) due?
    // Before that, a retried write is guaranteed another Unavailable.
    auto soonest = probe_backoff_.next_attempt;
    for (const auto& [name, entry] : backoff_) {
      soonest = std::min(soonest, entry.next_attempt);
    }
    const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
                          soonest - now)
                          .count();
    health.retry_after_ms =
        wait > 0 ? static_cast<uint64_t>(wait) : EffectiveBackoffInitialMs();
  }
  return health;
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

void ServerCatalog::RefreshMetrics() {
  metrics_->gauge("ziggy_catalog_tables")
      ->Set(static_cast<int64_t>(num_tables()));
  obs::RefreshProcessGauges(metrics_.get());
  // The registry's counters mirror the cache totals via AdvanceTo: a
  // racing Close could momentarily make the recomputed total dip (the
  // retiring server's in-flight counts move between buckets), and
  // AdvanceTo guarantees the published series still never decreases.
  const SketchCacheTotals totals = CacheTotals();
  metrics_->counter("ziggy_sketch_cache_hits_total")->AdvanceTo(totals.hits);
  metrics_->counter("ziggy_sketch_cache_misses_total")
      ->AdvanceTo(totals.misses);
  metrics_->counter("ziggy_sketch_cache_insertions_total")
      ->AdvanceTo(totals.insertions);
  metrics_->counter("ziggy_sketch_cache_evictions_total")
      ->AdvanceTo(totals.evictions);

  const uint64_t now_us = metrics_->clock()->NowMicros();
  MutexLock lock(flush_mu_);
  metrics_->gauge("ziggy_flusher_queue_depth")
      ->Set(static_cast<int64_t>(dirty_.size()));
  uint64_t max_age_ms = 0;
  std::set<std::string> still_dirty;
  for (const auto& [name, entry] : dirty_) {
    const uint64_t age_ms =
        now_us > entry.marked_us ? (now_us - entry.marked_us) / 1000 : 0;
    max_age_ms = std::max(max_age_ms, age_ms);
    metrics_->gauge("ziggy_table_dirty_age_ms{table=\"" + name + "\"}")
        ->Set(static_cast<int64_t>(age_ms));
    still_dirty.insert(name);
  }
  metrics_->gauge("ziggy_flusher_max_dirty_age_ms")
      ->Set(static_cast<int64_t>(max_age_ms));
  // Zero the gauge of any table that flushed clean since the last
  // refresh — a stale age would read as a stuck flusher.
  for (const std::string& name : dirty_gauge_tables_) {
    if (still_dirty.count(name) == 0) {
      metrics_->gauge("ziggy_table_dirty_age_ms{table=\"" + name + "\"}")
          ->Set(0);
    }
  }
  dirty_gauge_tables_ = std::move(still_dirty);
}

}  // namespace ziggy
