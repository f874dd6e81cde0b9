// SketchCache: a cache of accumulated SelectionSketches keyed by selection
// fingerprint, and ProvideSketches, the one Preparation routine that
// serves a read's inside sketches through it. Every engine prepares this
// way: a stand-alone engine over a private cache, a server session over
// the server's shared one.
//
// Why cache sketches and not component tables: sketches are the expensive
// artifact (one blocked scan over the selected rows of every column) AND
// they compose — a cached sketch serves
//   * the identical selection (exact hit, zero work), and
//   * any *overlapping* selection, by patching the XOR delta through the
//     scan's block kernels (SelectionSketches::ApplyDelta).
// Component tables compose in neither way.
//
// A sketch serves one table generation only: an append moves the doubled
// midranks of old rows, so its rank sums would be stale. The server
// therefore clears its cache on every append.
//
// Both kinds of hit come from one lookup (Find): the fingerprint probe is
// its delta-0 case, the MRU near-miss scan the rest. Sharding + LRU come
// from common/cache.h; this file adds the selection-aware lookup.

#ifndef ZIGGY_ENGINE_SKETCH_CACHE_H_
#define ZIGGY_ENGINE_SKETCH_CACHE_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "common/cache.h"
#include "obs/metrics.h"
#include "storage/selection.h"
#include "storage/table.h"
#include "zig/profile.h"
#include "zig/selection_sketches.h"

namespace ziggy {

/// \brief Where a request's inside sketches came from.
enum class SketchSource {
  kCacheExact,    ///< sketch cache, exact fingerprint hit
  kCachePatched,  ///< sketch cache, XOR-delta patched near miss
  kServerScan     ///< cold scan of the selected rows
};

const char* SketchSourceToString(SketchSource source);

/// \brief A read's inside sketches and their provenance.
struct ProvidedSketches {
  std::shared_ptr<const SelectionSketches> inside;
  SketchSource source = SketchSource::kServerScan;
  size_t delta_rows = 0;  ///< rows patched for kCachePatched
};

/// \brief One cached accumulation: the selection it covers and its inside
/// sketches. Immutable once inserted.
struct CachedSketches {
  Selection selection;
  std::shared_ptr<const SelectionSketches> inside;
  uint64_t generation = 0;
  size_t bytes = 0;
};

/// \brief Thread-safe sharded LRU cache of selection sketches.
class SketchCache {
 public:
  /// Cache shards, each guarded by one lock stripe.
  static constexpr size_t kShards = 8;
  /// MRU entries per shard examined by the near-miss scan. Small by
  /// design: exploration traffic is temporally local, so the profitable
  /// patch base is almost always a recent insertion.
  static constexpr size_t kRecentPerShard = 8;
  /// Byte budget of a stand-alone engine's cache and the server's default.
  static constexpr size_t kDefaultBudgetBytes = 64ull << 20;

  /// `budget_bytes` bounds this cache; `shared_budget`, when set, is a
  /// group budget shared with other caches (the serving catalog's global
  /// sketch-memory ceiling). See ShardedLruCache.
  explicit SketchCache(size_t budget_bytes,
                       std::shared_ptr<CacheBudget> shared_budget = nullptr)
      : cache_(kShards, budget_bytes, std::move(shared_budget)) {}

  /// The closest cached base for `selection` on `generation`, and its
  /// Hamming distance in `*delta_rows`. Probes `fingerprint` first: a hit
  /// holding the identical bitmap is returned with delta 0 (fingerprints
  /// collide, so the bitmap is compared). Otherwise scans the MRU prefix
  /// of every shard for the same-row-count entry at the smallest distance
  /// within `max_delta_rows`; with `max_delta_rows == 0` that scan is
  /// skipped. Returns nullptr when nothing qualifies. Entries of another
  /// generation never match: an entry inserted by a request still running
  /// against an older (since-flushed) generation must never serve a newer
  /// one — its rank sums and histograms belong to that generation.
  std::shared_ptr<const CachedSketches> Find(const Selection& selection,
                                             uint64_t fingerprint,
                                             uint64_t generation,
                                             size_t max_delta_rows,
                                             size_t* delta_rows);

  /// Inserts sketches for `selection` under its fingerprint.
  void Insert(const Selection& selection, uint64_t fingerprint,
              std::shared_ptr<const SelectionSketches> inside, uint64_t generation);

  void Clear() { cache_.Clear(); }
  CacheStats stats() const { return cache_.stats(); }

 private:
  ShardedLruCache<CachedSketches> cache_;
};

/// \brief How ProvideSketches runs for one caller.
struct ProvideSketchesOptions {
  /// Table generation the selection was evaluated on (0 stand-alone).
  uint64_t generation = 0;
  /// Patch a near miss within SelectionSketches::MaxPatchDelta; false
  /// limits reuse to exact hits.
  bool patch_near_misses = true;
  /// Threads per cold scan (0 = ThreadsForCells).
  size_t scan_threads = 0;
  /// Span clock and histograms of the "sketch_lookup" (lookup and patch)
  /// and "scan" spans; a null clock disarms both.
  obs::Clock* clock = nullptr;
  obs::Histogram* lookup_us = nullptr;
  obs::Histogram* scan_us = nullptr;
};

/// \brief The inside sketches of a validated `selection`: an exact hit in
/// `cache`, else a copy of the nearest cached base patched over the XOR
/// delta (SelectionSketches::ApplyDelta) when it is within
/// SelectionSketches::MaxPatchDelta, else a cold SelectionSketches::Build.
/// Patched and scanned sketches are inserted into `cache`. A null `cache`
/// always scans and keeps nothing.
ProvidedSketches ProvideSketches(const Table& table,
                                 const TableProfile& profile,
                                 const Selection& selection,
                                 uint64_t fingerprint, SketchCache* cache,
                                 const ProvideSketchesOptions& options);

}  // namespace ziggy

#endif  // ZIGGY_ENGINE_SKETCH_CACHE_H_
