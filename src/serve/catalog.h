// ServerCatalog: multi-table serving. One catalog owns N named tables,
// each fronted by its own ZiggyServer (per-table snapshots, sessions,
// sketch cache), while two resources are global:
//
//   * the worker pool — every table's scans execute on the process-wide
//     SharedWorkerPool (common/parallel.h), so N tables contend for one
//     bounded set of threads instead of oversubscribing the host, and
//   * the sketch-cache byte budget — a single CacheBudget ledger spans
//     every table's ShardedLruCache, so one hot table can use the whole
//     allowance while idle tables' entries age out cooperatively.
//
// Determinism is inherited from ZiggyServer: a table's outputs depend only
// on its own request/append history, never on thread counts or on which
// other tables are being served concurrently (pinned by tests/daemon_test.cc,
// which byte-matches two concurrently served tables against solo runs).
//
// Durability: a catalog may additionally attach a ZiggyStore
// (persist/store.h). Tables can then be opened *from* a checkpoint
// (skipping CSV parsing and the profile computation; the sketch cache
// starts empty and refills from scans), saved explicitly (the SAVE
// verb), and checkpointed automatically on append (SetPersist /
// checkpoint_on_append). Warm restart output is byte-identical to a cold
// boot — pinned by tests/store_test.cc and the CI store-roundtrip gate.
//
// Background flushing: with flush_interval_ms > 0, an append on a
// persisted table only marks the table dirty (recording the post-append
// generation) and returns — APPEND latency is the in-memory append. A
// dedicated flusher thread wakes every interval, snapshots the dirty
// set, and checkpoints each dirty table through the store's per-table
// locks, so one table's long save never delays another's load or save.
// Failed flushes re-mark the table dirty and are retried with capped
// per-table exponential backoff (a dead disk costs one save attempt per
// backoff window, not one per interval). StopFlusher() (also run by
// Close, the destructor, and the daemon's shutdown path) drains the
// dirty set before returning, so a *clean* shutdown loses nothing; after
// a crash/SIGKILL, the store serves the last flushed generation — the
// window is bounded by the interval.
//
// Degraded read-only mode: after `degraded_after_failures` consecutive
// background-save failures the catalog stops accepting writes (Append /
// SaveToStore return Unavailable with a retry-after hint) while reads
// keep serving from memory. The flusher keeps probing the store (backoff
// pace) and the mode auto-clears on the first successful save.

#ifndef ZIGGY_SERVE_CATALOG_H_
#define ZIGGY_SERVE_CATALOG_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cache.h"
#include "common/result.h"
#include "common/sync.h"
#include "obs/metrics.h"
#include "persist/store.h"
#include "serve/ziggy_server.h"

namespace ziggy {

/// \brief Catalog-level knobs; per-table ServeOptions are derived from
/// `serve` with the shared budget installed.
struct CatalogOptions {
  ServeOptions serve;  ///< defaults applied to every opened table
  /// Global sketch-cache ceiling across all tables (bytes).
  size_t total_cache_budget_bytes = 256ull << 20;
  size_t max_tables = 64;
  /// Checkpoint every successful Append() of every table to the attached
  /// store (per-table PERSIST overrides this default; no effect without a
  /// store).
  bool checkpoint_on_append = false;
  /// Background flusher cadence. 0 = no flusher: append checkpoints run
  /// synchronously on the request thread. > 0: appends mark the table
  /// dirty and a flusher thread (started by AttachStore) checkpoints
  /// dirty tables every interval.
  size_t flush_interval_ms = 0;
  /// First retry delay after a failed background flush of a table; doubles
  /// per consecutive failure up to flush_backoff_max_ms. 0 = twice the
  /// flush interval.
  size_t flush_backoff_initial_ms = 0;
  size_t flush_backoff_max_ms = 30000;
  /// Consecutive background-save failures (across tables) that trip the
  /// catalog into degraded read-only mode. 0 = never degrade.
  size_t degraded_after_failures = 5;
  /// Delta-chain compaction policy handed to the attached store.
  StoreOptions store;
  /// Shared metrics registry (obs/metrics.h). Null: the catalog creates
  /// its own on the system clock. Tests inject a registry built on a
  /// FakeClock to make dirty-age / latency readouts deterministic. The
  /// catalog shares the registry with every server it opens and with
  /// the daemon fronting it.
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

/// \brief One row of LIST output.
struct CatalogTableInfo {
  std::string name;
  size_t num_rows = 0;
  size_t num_columns = 0;
  uint64_t generation = 0;
  size_t num_sessions = 0;
};

/// \brief One table's outcome in SaveAllToStore.
struct TableSaveResult {
  std::string name;
  /// Checkpointed (or already-durable) generation when status is OK.
  uint64_t generation = 0;
  Status status;
};

/// \brief Thread-safe name -> ZiggyServer map with shared resources.
class ServerCatalog {
 public:
  explicit ServerCatalog(CatalogOptions options = {});
  ~ServerCatalog();

  /// Profiles `table` and serves it as `name`. Names are non-empty tokens
  /// without whitespace; re-opening a served name fails (CLOSE it first).
  Result<std::shared_ptr<ZiggyServer>> Open(const std::string& name,
                                            Table table);

  /// The server for `name`, or NotFound.
  Result<std::shared_ptr<ZiggyServer>> Find(const std::string& name) const;

  /// Stops serving `name`. Existing shared_ptr handles (and requests in
  /// flight on them) stay valid until released. The table's checkpoint in
  /// the store, if any, is kept — closing stops serving, it does not
  /// delete durable data. A pending background flush for the table is
  /// completed synchronously first, so closing never drops appended rows.
  Status Close(const std::string& name);

  /// Appends rows to `name` as a new generation. When the table is
  /// marked for persistence (SetPersist) or checkpoint_on_append is set,
  /// the new generation is made durable: synchronously when no flusher
  /// runs, else by marking the table dirty for the background flusher
  /// (the append returns immediately). Returns the post-append
  /// generation of the server the rows were applied to (callers must not
  /// re-resolve the name: it may have been replaced concurrently). The
  /// append itself succeeds even if the checkpoint fails; the checkpoint
  /// status is returned through `checkpoint_status` when non-null.
  Result<uint64_t> Append(const std::string& name, const Table& rows,
                          Status* checkpoint_status = nullptr);

  /// \name Durability (persist/store.h).
  /// @{

  /// Attaches (opening or initializing) a store directory and, when
  /// flush_interval_ms > 0, starts the background flusher. Fails if a
  /// store is already attached or the directory is unusable.
  Status AttachStore(const std::string& dir);
  bool HasStore() const { return store_ != nullptr; }
  const ZiggyStore* store() const { return store_.get(); }

  /// True when the attached store holds a checkpoint for `name`.
  bool StoreHas(const std::string& name) const;

  /// Serves `name` from its checkpoint: binary table + finished profile
  /// (no recompute). Fails like Open() on duplicate names / capacity;
  /// corruption of the table or profile installs nothing.
  Result<std::shared_ptr<ZiggyServer>> OpenFromStore(const std::string& name);

  /// Checkpoints one served table (table, profile) at its current
  /// generation. With `only_if_newer`, skips when the stored
  /// generation is already at or past ours (the append path's cheap
  /// idempotence — and the guard against an older save clobbering a
  /// concurrent newer one). Returns the durable generation.
  Result<uint64_t> SaveToStore(const std::string& name,
                               bool only_if_newer = false);

  /// Checkpoints every served table, continuing past failures; one
  /// result per table in name order. Only fails outright when no store
  /// is attached.
  Result<std::vector<TableSaveResult>> SaveAllToStore();

  /// Marks `name` for checkpoint-on-append (the PERSIST verb). The flag
  /// is cleared when the table is closed.
  Status SetPersist(const std::string& name, bool on);

  /// Synchronously drains pending dirty tables and stops the flusher
  /// thread. Idempotent; also run by the destructor and Stop paths.
  void StopFlusher();
  /// @}

  /// Every served table, sorted by name (deterministic LIST output).
  std::vector<CatalogTableInfo> List() const;

  size_t num_tables() const;

  /// True while the catalog is in degraded read-only mode (the store is
  /// failing; writes are refused with a retry-after hint).
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }

  const std::shared_ptr<CacheBudget>& shared_budget() const {
    return shared_budget_;
  }

  /// The catalog's metrics registry (never null). Stable for the
  /// catalog's lifetime; shared with every opened server.
  obs::MetricsRegistry* metrics() const { return metrics_.get(); }

  /// The one pass that writes the catalog's control state (tables,
  /// budget, pool, StoreStats, dirty/backoff maps, degraded latch,
  /// retry-after, per-table dirty ages) and the process gauges to the
  /// registry, and carries the sketch-cache counters forward (see
  /// SketchCacheTotals). STATS, HEALTH and METRICS run it first. Returns
  /// the (table, age_ms) row of each dirty table, in name order: dirty
  /// membership cannot be read off a gauge (a fresh mark has age 0).
  std::vector<std::pair<std::string, uint64_t>> RefreshMetrics();

  /// \brief Catalog-lifetime sketch-cache counters: live servers summed
  /// plus every server retired by Close (or replaced by a re-OPEN).
  /// Monotonic across generation swaps — the per-server counters reset
  /// when a CLOSE/re-OPEN replaces the server object, so rates computed
  /// from the per-table STATS could move backwards; these cannot.
  struct SketchCacheTotals {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
  };
  SketchCacheTotals CacheTotals() const;

 private:
  /// One published table: the server plus the lineage id handed to the
  /// store so delta checkpoints are only cut against the snapshot chain
  /// they extend (a re-OPENed name gets a fresh lineage, forcing the
  /// next checkpoint to a full base snapshot).
  struct Served {
    std::string name;
    std::shared_ptr<ZiggyServer> server;
    uint64_t lineage = 0;
  };

  /// Per-table ServeOptions with the shared budget installed.
  ServeOptions DerivedServeOptions() const;
  /// Duplicate-name/capacity check + publish under mu_.
  Status Publish(const std::string& name, std::shared_ptr<ZiggyServer> server,
                 uint64_t lineage);
  /// Checkpoints an already-resolved server under `name` (no re-lookup).
  Result<uint64_t> SaveServerToStore(const std::string& name,
                                     ZiggyServer* server, uint64_t lineage,
                                     bool only_if_newer);
  /// The published lineage of `server`, or 0 when it was replaced.
  uint64_t LineageOf(const std::string& name, const ZiggyServer* server) const;
  /// Marks `name` dirty for the flusher (records the generation).
  void MarkDirty(const std::string& name, uint64_t generation);
  /// Flushes one batch of dirty tables; returns how many succeeded.
  size_t FlushDirty(std::map<std::string, uint64_t> batch,
                    bool requeue_failures);
  void FlusherLoop();
  /// Store success/failure bookkeeping for the background paths: backoff
  /// scheduling, the consecutive-failure counter, and the degraded latch.
  void NoteStoreSuccess(const std::string& name);
  void NoteStoreFailure(const std::string& name, uint64_t generation,
                        bool requeue);
  /// While degraded with nothing dirty, writes a real checkpoint of one
  /// served table to test whether the store recovered (clears the mode on
  /// success; with no tables at all the mode clears trivially).
  void ProbeStore();
  size_t EffectiveBackoffInitialMs() const;
  /// While degraded: when the next save attempt (per-table retry or
  /// store probe) is due, in ms from now — a client retrying a write
  /// sooner is guaranteed another Unavailable. 0 when not degraded.
  uint64_t RetryAfterMs() const ZIGGY_REQUIRES(flush_mu_);
  Status DegradedError() const;

  CatalogOptions options_;
  std::shared_ptr<CacheBudget> shared_budget_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  obs::Histogram* store_save_us_ = nullptr;
  obs::Histogram* store_load_us_ = nullptr;
  // Registry counters (their only store), resolved in the constructor.
  obs::Counter* tables_opened_ = nullptr;
  obs::Counter* tables_closed_ = nullptr;
  obs::Counter* store_opens_ = nullptr;
  obs::Counter* store_saves_ = nullptr;
  obs::Counter* flush_cycles_ = nullptr;
  obs::Counter* flushed_tables_ = nullptr;
  obs::Counter* flush_failures_ = nullptr;
  std::unique_ptr<ZiggyStore> store_;

  /// Sketch-cache counters folded in from servers that left the catalog
  /// (Close / re-OPEN replacement); see SketchCacheTotals.
  std::atomic<uint64_t> retired_cache_hits_{0};
  std::atomic<uint64_t> retired_cache_misses_{0};
  std::atomic<uint64_t> retired_cache_insertions_{0};
  std::atomic<uint64_t> retired_cache_evictions_{0};

  // kCatalog is the outermost serve-tier lock: List/CacheTotals/Close hold
  // it while calling into per-server state (sessions, state, stats) and
  // the sketch caches. Never nested with flush_mu_.
  mutable Mutex mu_{LockRank::kCatalog, "catalog.mu_"};
  std::vector<Served> tables_ ZIGGY_GUARDED_BY(mu_);
  std::set<std::string> persist_tables_ ZIGGY_GUARDED_BY(mu_);
  std::atomic<uint64_t> next_lineage_{1};

  /// \name Flusher state.
  /// @{
  struct DirtyEntry {
    uint64_t generation = 0;
    /// When the table FIRST went dirty (survives generation bumps), so
    /// HEALTH can report how far durability is lagging. Read off the
    /// registry clock, so tests age dirty tables with a FakeClock.
    uint64_t marked_us = 0;
  };
  struct BackoffEntry {
    uint32_t failures = 0;
    std::chrono::steady_clock::time_point next_attempt;
  };
  /// Guards the dirty/backoff bookkeeping only; the flusher releases it
  /// before touching servers or the store, and RefreshMetrics holds it
  /// across registry lookups (kCatalogFlush < kMetrics).
  mutable Mutex flush_mu_{LockRank::kCatalogFlush, "catalog.flush_mu_"};
  CondVar flush_cv_;
  std::map<std::string, DirtyEntry> dirty_ ZIGGY_GUARDED_BY(flush_mu_);
  /// Tables (plus the degraded-probe pseudo-entry) waiting out a retry
  /// delay after failed saves; erased on the first success.
  std::map<std::string, BackoffEntry> backoff_ ZIGGY_GUARDED_BY(flush_mu_);
  BackoffEntry probe_backoff_ ZIGGY_GUARDED_BY(flush_mu_);
  /// Tables with a live `ziggy_table_dirty_age_ms{table=...}` gauge, so
  /// RefreshMetrics can zero the gauge once a table flushes clean.
  std::set<std::string> dirty_gauge_tables_ ZIGGY_GUARDED_BY(flush_mu_);
  bool flusher_stop_ ZIGGY_GUARDED_BY(flush_mu_) = false;
  std::thread flusher_;
  std::atomic<uint64_t> consecutive_store_failures_{0};
  std::atomic<bool> degraded_{false};
  /// @}
};

}  // namespace ziggy

#endif  // ZIGGY_SERVE_CATALOG_H_
