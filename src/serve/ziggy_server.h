// ZiggyServer: the concurrent multi-session serving layer.
//
// One server owns one logical table and everything derived from it — the
// TableProfile, the column dendrogram, and a shared cache of accumulated
// SelectionSketches — and multiplexes any number of exploration sessions
// over that state concurrently. The design is two nested layers of
// sharing:
//
//   per server    the SketchCache (same/overlapping selections across
//                 sessions), served by ProvideSketches, the routine a
//                 stand-alone engine runs over its private cache: one
//                 lookup finds the exact entry or the nearest patch base
//                 within the patch-or-scan rule; cold misses scan
//                 directly, concurrently across sessions, each scan
//                 column-partitioned on the shared worker pool; a
//                 repeated query is an exact hit, and its components are
//                 rebuilt from the cached sketches
//   per table     the profile/dendrogram snapshot, swapped atomically on
//                 append; readers keep the generation they started on
//
// Concurrency model: immutable snapshots + per-session locks + sharded
// cache locks. A characterize request takes exactly one session mutex (its
// own) and brief per-shard cache mutexes; appends build the next
// generation off to the side and swap a pointer. Per-session results are
// deterministic: they depend on the session's own request order and the
// append schedule — never on cross-session interleaving or on thread
// counts (see tests/serve_stress_test.cc, which byte-matches a concurrent
// run against a single-threaded replay).

#ifndef ZIGGY_SERVE_ZIGGY_SERVER_H_
#define ZIGGY_SERVE_ZIGGY_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/sync.h"
#include "engine/session.h"
#include "engine/sketch_cache.h"
#include "engine/ziggy_engine.h"
#include "obs/metrics.h"
#include "storage/snapshot.h"

namespace ziggy {

/// \brief Serving-layer knobs on top of the per-session engine options.
struct ServeOptions {
  ZiggyOptions engine;      ///< per-session pipeline knobs
  SessionOptions session;   ///< default novelty policy for new sessions

  bool cache_enabled = true;
  size_t cache_budget_bytes = SketchCache::kDefaultBudgetBytes;
  /// Group byte budget shared with other servers' sketch caches (set by
  /// ServerCatalog so N tables compete for one global ceiling instead of
  /// N private ones). Null for a stand-alone server.
  std::shared_ptr<CacheBudget> shared_cache_budget;

  /// Reuse an overlapping cached selection by patching the XOR delta
  /// through the scan's block kernels (SelectionSketches::ApplyDelta),
  /// when it is within SelectionSketches::MaxPatchDelta (see
  /// ProvideSketches). Patching changes floating-point summation order
  /// relative to a scan (exact integer statistics are unaffected); disable
  /// for bit-reproducible replays.
  bool patch_near_misses = true;

  /// Threads per cold scan (0 = ThreadsForCells: one per kCellsPerThread
  /// cells scanned, at most one per core). Execution knob only.
  size_t scan_threads = 0;

  /// Metrics registry to record scan / cache-lookup latency, the
  /// cold-OPEN profile build (ziggy_open_profile_us) and the cold- and
  /// warm-OPEN column dendrogram (ziggy_open_dendrogram_us) into
  /// (obs/metrics.h). Null (the stand-alone default) disables the
  /// instrumentation entirely; ServerCatalog installs its registry here
  /// so every table's engine timings land in one place.
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

/// \brief Monotonic serving counters (one consistent snapshot).
struct ServeStats {
  uint64_t requests = 0;
  uint64_t failures = 0;
  uint64_t sketch_exact_hits = 0;
  uint64_t sketch_patched_hits = 0;
  uint64_t sketch_misses = 0;
  uint64_t patched_delta_rows = 0;
  uint64_t appends = 0;
  uint64_t appended_rows = 0;
  uint64_t cache_flushes = 0;
  uint64_t sessions_opened = 0;
  uint64_t generation = 0;
  CacheStats cache;
};

/// \brief One table generation plus everything derived from it. Immutable;
/// shared by every request that started on it.
struct ServingState {
  TableSnapshot snapshot;
  std::shared_ptr<const TableProfile> profile;
  std::shared_ptr<const Dendrogram> dendrogram;

  uint64_t generation() const { return snapshot.generation(); }
  const Table& table() const { return snapshot.table(); }
};

/// \brief The concurrent serving layer. All public methods are
/// thread-safe.
class ZiggyServer {
 public:
  /// Profiles `table` (the one-off cost) and starts serving generation 0.
  static Result<std::unique_ptr<ZiggyServer>> Create(Table table,
                                                     ServeOptions options = {});

  /// Starts serving a precomputed (table, generation, profile) checkpoint
  /// — the persistence layer's warm-restart path, which skips the profile
  /// computation Create() pays. The profile must have been computed from
  /// `table` (validated structurally); the dendrogram is rebuilt here
  /// (cheap and deterministic in the profile).
  static Result<std::unique_ptr<ZiggyServer>> CreateFromState(
      Table table, uint64_t generation, TableProfile profile,
      ServeOptions options = {});

  /// Opens a session with the server's default novelty policy (or an
  /// explicit one) and returns its id.
  uint64_t OpenSession();
  uint64_t OpenSession(const SessionOptions& options);
  Status CloseSession(uint64_t session_id);
  size_t num_sessions() const;

  /// Characterizes a query inside a session: parse → evaluate on the
  /// current snapshot → shared sketch cache / cold scan → view search
  /// → novelty policy.
  Result<Characterization> Characterize(uint64_t session_id,
                                        const std::string& query_text);

  /// Appends rows (same schema) as a new table generation: the profile is
  /// updated through the incremental delta machinery (no full rescan; a
  /// column whose value range grew is re-binned alone), and the sketch
  /// cache is cleared, counted in ServeStats::cache_flushes. Cached
  /// sketches cannot carry over: the append moves the midranks of old
  /// rows, so their rank sums would be stale. In-flight requests keep
  /// reading the generation they started on.
  Status Append(const Table& rows);

  /// Aggregate session statistics (novelty counters, per-stage times).
  Result<SessionStats> GetSessionStats(uint64_t session_id) const;

  void FlushSketchCache();
  /// The shared cache's sketches for `selection` on the current generation
  /// (null when absent). Counts as a cache lookup in the cache stats.
  std::shared_ptr<const SelectionSketches> FindCachedSketches(
      const Selection& selection);
  ServeStats stats() const;

  /// Current state handle (generation, table, profile). Callers may hold
  /// it across appends; it never mutates.
  std::shared_ptr<const ServingState> state() const;

  const ServeOptions& options() const { return options_; }

 private:
  struct Session {
    /// kSession: held across the whole Characterize (engine, sketch
    /// provider, scan); one session's lock at a time, below state_mu_.
    mutable Mutex mu{LockRank::kSession, "server.session.mu"};
    uint64_t id = 0;
    SessionOptions options;
    /// Generation the engine below was built against; rebuilt lazily when
    /// the server has moved on (the tracker survives rebuilds).
    uint64_t engine_generation = ~uint64_t{0};
    std::unique_ptr<ZiggyEngine> engine;
    NoveltyTracker novelty;
    SessionStats stats;
  };

  ZiggyServer(ServeOptions options, std::shared_ptr<const ServingState> state);

  std::shared_ptr<Session> FindSession(uint64_t session_id) const;
  /// Rebuilds `session`'s engine against `state` and installs its sketch
  /// provider: ProvideSketches over the shared cache (null when
  /// cache_enabled is off) on `state`'s generation, counted in the
  /// sketch_* counters. Caller holds the session mutex.
  Status BindSession(Session* session, std::shared_ptr<const ServingState> state)
      ZIGGY_REQUIRES(session->mu);

  ServeOptions options_;

  mutable Mutex state_mu_{LockRank::kServerState, "server.state_mu_"};
  std::shared_ptr<const ServingState> state_ ZIGGY_GUARDED_BY(state_mu_);
  /// Serializes generation building. Outermost server lock: held across
  /// state() reads, the cache flush, and the state_mu_ publish.
  Mutex append_mu_{LockRank::kServerAppend, "server.append_mu_"};

  mutable Mutex sessions_mu_{LockRank::kServerSessions, "server.sessions_mu_"};
  std::unordered_map<uint64_t, std::shared_ptr<Session>> sessions_
      ZIGGY_GUARDED_BY(sessions_mu_);
  std::atomic<uint64_t> next_session_id_{1};

  SketchCache cache_;

  /// Resolved once from options_.metrics (null without a registry).
  obs::Histogram* scan_us_ = nullptr;
  obs::Histogram* sketch_lookup_us_ = nullptr;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> failures_{0};
  std::atomic<uint64_t> sketch_exact_hits_{0};
  std::atomic<uint64_t> sketch_patched_hits_{0};
  std::atomic<uint64_t> sketch_misses_{0};
  std::atomic<uint64_t> patched_delta_rows_{0};
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> appended_rows_{0};
  std::atomic<uint64_t> cache_flushes_{0};
  std::atomic<uint64_t> sessions_opened_{0};
};

}  // namespace ziggy

#endif  // ZIGGY_SERVE_ZIGGY_SERVER_H_
