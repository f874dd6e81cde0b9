// ZiggyStore: the on-disk durability layer under the serving stack.
//
// A store is a directory of per-table checkpoints plus one manifest:
//
//   <dir>/ziggy.manifest                     commit record (persist/manifest.h)
//   <dir>/tables/<name>/table.g<B>.ztbl      full base snapshot (table_io.h)
//   <dir>/tables/<name>/delta.g<D>.zdlt      delta segments on top of the base
//   <dir>/tables/<name>/profile.g<G>.zprof   TableProfile (ZIGPROF4 codec)
//   <dir>/dicts/dict.<hex16>.zdic            pooled dictionaries (dict_pool.h)
//
// Data files are named by the generation they checkpoint, and the
// manifest records which generations are current: the base snapshot plus
// an ordered delta chain (storage/table_io.h), with the profile always at
// the chain's head generation. The manifest rewrite is the single atomic
// switch point. A crash anywhere inside a save leaves the previous
// chain's files untouched and the manifest pointing at them; at worst
// some orphaned next-generation files remain, which the next full
// checkpoint of the table sweeps. The same sweep removes any other file
// the manifest does not reference, such as the sketch-cache snapshots
// older releases wrote.
//
// Why it exists: a cold daemon boot pays CSV parsing plus the full
// TableProfile::Compute — the dominant cost on wide tables. A warm boot
// streams checksummed binary columns and the finished profile back in,
// so a restarted daemon serves byte-identical CHARACTERIZE/VIEWS output
// at a fraction of the startup cost (pinned by tests/store_test.cc and
// the CI store-roundtrip gate). The sketch cache is deliberately NOT
// persisted: selection sketches are rebuilt from the table and profile
// by one scan, which is cheaper than writing, reading and validating a
// snapshot of them (a sketch snapshot made every save ~8x slower and the
// store ~20x larger, and warming from it was slower than the scans it
// saved).
//
// Encodings: every checkpoint is written in the compressed formats —
// ZIGTBL02 tables with categorical dictionaries in the shared pool,
// ZIGDLT02 delta segments — and raw is a per-column codec choice inside
// them, not a store mode. Reads auto-detect by magic, so stores holding
// raw ZIGTBL01/ZIGDLT01 files from older releases still load.
//
// Write protocol (SaveTable): generation-named data files are staged
// (tmp + fsync + rename + directory fsync each), the manifest commits
// last (same fsync discipline), then superseded files are swept. A crash
// — including a power loss — at any point leaves the previous complete
// checkpoint or the new one. When the table being saved extends the last
// persisted state (same schema, persisted rows/dictionaries are a
// prefix), the save writes an O(delta) segment instead of rewriting the
// table: bytes proportional to the appended rows. The chain is compacted
// back into a full base snapshot when it grows past
// StoreOptions::max_delta_chain segments or past max_delta_fraction of
// the base's bytes.
//
// Locking: the manifest and per-table bookkeeping live behind one light
// mutex; each table's file I/O is serialized by a per-table lock, so a
// long-running save of one table never blocks loads or saves of another
// (the background flusher in serve/catalog.h depends on this). A store
// directory belongs to ONE process at a time — two daemons on the same
// --store are not supported.
//
// Corruption policy (LoadTable): table/profile/delta damage — truncation,
// bit flips, wrong magic, version mismatches, a segment that does not
// extend its base — fails with a clean Status and installs nothing (the
// base snapshot itself stays intact on disk; the next full save repairs
// the chain).

#ifndef ZIGGY_PERSIST_STORE_H_
#define ZIGGY_PERSIST_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/sync.h"
#include "persist/dict_pool.h"
#include "persist/manifest.h"
#include "storage/table.h"
#include "zig/profile.h"

namespace ziggy {

/// \brief Store-level knobs (the delta-chain compaction policy).
struct StoreOptions {
  /// Compact (full base rewrite) when the chain already holds this many
  /// delta segments. 0 disables delta checkpoints entirely.
  size_t max_delta_chain = 8;
  /// Compact when the chain's cumulative bytes exceed this fraction of
  /// the base snapshot's bytes.
  double max_delta_fraction = 0.5;
};

/// \brief Monotonic store counters (this process's saves).
struct StoreStats {
  uint64_t full_checkpoints = 0;   ///< full base snapshots written
  uint64_t delta_checkpoints = 0;  ///< O(delta) segments written
  uint64_t compactions = 0;        ///< full rewrites forced by chain limits
  /// Table-data bytes written by checkpoints (.ztbl + .zdlt files; the
  /// O(columns) profile files are excluded so the counter isolates
  /// what the delta path optimizes).
  uint64_t checkpoint_bytes = 0;
  uint64_t last_checkpoint_bytes = 0;  ///< same, for the most recent save
  /// What the same checkpoints would have cost in the raw v1 encoding
  /// (exact, see UncompressedTableBytes) — checkpoint_bytes vs
  /// checkpoint_raw_bytes is the store's measured compression ratio.
  uint64_t checkpoint_raw_bytes = 0;
  uint64_t last_checkpoint_raw_bytes = 0;
  /// Shared dictionary pool gauges/counters (persist/dict_pool.h).
  uint64_t dict_pool_files = 0;
  uint64_t dict_pool_bytes = 0;
  uint64_t dict_pool_shared_hits = 0;
};

/// \brief One loaded checkpoint.
struct StoredTable {
  Table table;
  uint64_t generation = 0;
  TableProfile profile;
};

/// \brief Directory-backed table/profile store. Thread-safe.
class ZiggyStore {
 public:
  /// Opens (or initializes) a store at `dir`. A fresh directory gets an
  /// empty manifest; an existing manifest is validated up front so a
  /// corrupt store fails at attach time, not mid-request.
  static Result<std::unique_ptr<ZiggyStore>> Open(const std::string& dir,
                                                  StoreOptions options = {});

  const std::string& dir() const { return dir_; }
  const StoreOptions& options() const { return options_; }
  /// The store's shared dictionary pool.
  DictPool* dict_pool() const { return dict_pool_.get(); }

  /// Manifest snapshot, sorted by table name.
  std::vector<ManifestEntry> List() const;
  bool Has(const std::string& name) const;
  /// The generation `name` was checkpointed at, or NotFound.
  Result<uint64_t> StoredGeneration(const std::string& name) const;

  /// Checkpoints one table: a delta segment when `table` extends the last
  /// persisted state and the chain is within the compaction limits, a
  /// full base snapshot otherwise. Data files staged tmp+fsync+rename,
  /// manifest last.
  ///
  /// `lineage` identifies the immutable-snapshot chain the table comes
  /// from (the serving layer's append path: each generation extends the
  /// previous). A delta is only cut when the save's lineage matches the
  /// persisted shape's — the shape checks (row count, schema, dictionary
  /// prefix sizes) cannot distinguish a genuine append from an unrelated
  /// table that happens to be larger under the same name (CLOSE + cold
  /// re-OPEN), and a delta cut against the wrong base would silently
  /// corrupt the checkpoint. 0 = no lineage: always a full snapshot.
  Status SaveTable(const std::string& name, const Table& table,
                   uint64_t generation, const TableProfile& profile,
                   uint64_t lineage = 0);

  /// Loads one checkpoint, replaying the delta chain on top of the base
  /// snapshot (see corruption policy above). `lineage` stamps the loaded
  /// state as the persisted shape for that chain, so the first append
  /// checkpoint after a warm boot is already O(delta); pass the same id
  /// to SaveTable for the server created from this load.
  Result<StoredTable> LoadTable(const std::string& name,
                                uint64_t lineage = 0) const;

  /// Drops a table's checkpoint (manifest first, then the files).
  Status RemoveTable(const std::string& name);

  StoreStats stats() const;

  /// \name Paths (exposed for tests and tooling). Data file paths are
  /// per generation — the manifest says which generations are current.
  /// @{
  std::string TableDir(const std::string& name) const;
  std::string TablePath(const std::string& name, uint64_t generation) const;
  std::string DeltaPath(const std::string& name, uint64_t generation) const;
  std::string ProfilePath(const std::string& name, uint64_t generation) const;
  std::string ManifestPath() const;
  /// @}

 private:
  /// The shape of a table's last persisted state — what a delta segment
  /// must extend. Tracked per table so the save path can decide delta vs
  /// full (and cut the segment) without re-reading the checkpoint.
  struct PersistedShape {
    bool valid = false;
    uint64_t lineage = 0;  ///< snapshot chain the shape belongs to (0 = none)
    uint64_t rows = 0;
    std::vector<Field> fields;
    /// Per-column persisted dictionary size (0 for numeric columns).
    std::vector<size_t> dict_sizes;
    uint64_t base_bytes = 0;   ///< size of the base .ztbl file
    uint64_t delta_bytes = 0;  ///< cumulative .zdlt bytes in the chain
  };

  /// Per-table serialization + shape cache. The struct outlives map
  /// erasure (shared_ptr) so a racing RemoveTable cannot free a mutex
  /// another thread is blocked on.
  ///
  /// kTableStore < kManifest: the save/load/remove paths hold the table
  /// lock for the whole operation and open short manifest scopes inside
  /// it. Only one table's lock is ever held at a time.
  struct TableState {
    Mutex mu{LockRank::kTableStore, "store.table.mu"};
    PersistedShape shape ZIGGY_GUARDED_BY(mu);
  };

  ZiggyStore(std::string dir, StoreOptions options)
      : dir_(std::move(dir)), options_(options) {}

  std::shared_ptr<TableState> StateFor(const std::string& name) const;
  /// True when `table` extends `shape` (schema equal, persisted rows and
  /// dictionary prefixes unchanged) so an O(delta) segment can be cut.
  static bool ExtendsShape(const Table& table, const PersistedShape& shape);
  static PersistedShape ShapeOf(const Table& table);

  /// Serializes + atomically rewrites the manifest. Caller holds mu_.
  Status CommitManifestLocked() ZIGGY_REQUIRES(mu_);
  /// Full base snapshot; caller holds the table's lock.
  Status SaveFullLocked(TableState* state, const std::string& name,
                        const Table& table, uint64_t generation,
                        const TableProfile& profile, uint64_t lineage,
                        bool counts_as_compaction)
      ZIGGY_REQUIRES(state->mu);
  /// O(delta) segment on top of `previous`; caller holds the table's lock.
  Status SaveDeltaLocked(TableState* state, const std::string& name,
                         const Table& table, uint64_t generation,
                         const TableProfile& profile, uint64_t lineage,
                         const ManifestEntry& previous)
      ZIGGY_REQUIRES(state->mu);
  /// Removes every data file in the table's directory not referenced by
  /// `keep` (orphans from crashed saves included). Best effort.
  void SweepUnreferenced(const std::string& name, const ManifestEntry& keep);
  /// Deletes pooled dictionaries no manifest entry references. Best
  /// effort; runs after full saves and removals.
  void SweepDictPool();

  std::string dir_;
  StoreOptions options_;
  std::unique_ptr<DictPool> dict_pool_;

  /// Guards manifest_ and states_ (the map). Acquired inside a table lock
  /// (kTableStore < kManifest) and released before any dict-pool call.
  mutable Mutex mu_{LockRank::kManifest, "store.manifest.mu_"};
  Manifest manifest_ ZIGGY_GUARDED_BY(mu_);
  mutable std::unordered_map<std::string, std::shared_ptr<TableState>> states_
      ZIGGY_GUARDED_BY(mu_);

  std::atomic<uint64_t> full_checkpoints_{0};
  std::atomic<uint64_t> delta_checkpoints_{0};
  std::atomic<uint64_t> compactions_{0};
  std::atomic<uint64_t> checkpoint_bytes_{0};
  std::atomic<uint64_t> last_checkpoint_bytes_{0};
  std::atomic<uint64_t> checkpoint_raw_bytes_{0};
  std::atomic<uint64_t> last_checkpoint_raw_bytes_{0};
};

}  // namespace ziggy

#endif  // ZIGGY_PERSIST_STORE_H_
