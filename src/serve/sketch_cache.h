// SketchCache: the serving layer's shared cache of accumulated
// SelectionSketches, keyed by selection fingerprint.
//
// Why cache sketches and not component tables: sketches are the expensive
// artifact (one blocked scan over the selected rows of every column) AND
// they compose — a cached sketch serves
//   * the identical selection (exact hit, zero work),
//   * any *overlapping* selection, by patching the XOR delta row-by-row
//     through the existing incremental machinery (AddRow/RemoveRow are
//     exact inverses), and
//   * any future table generation that only appended rows: appended rows
//     are outside every cached selection, so the inside sketches stay
//     exactly right — only the stored bitmap is resized and re-keyed
//     (MigrateToAppendedRows).
// Component tables compose in none of these ways.
//
// Sharding + LRU come from common/cache.h; this file adds the
// selection-aware operations (near-miss search, append migration).

#ifndef ZIGGY_SERVE_SKETCH_CACHE_H_
#define ZIGGY_SERVE_SKETCH_CACHE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/cache.h"
#include "storage/selection.h"
#include "zig/selection_sketches.h"

namespace ziggy {

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
  struct Options {
    size_t shards = 8;
    size_t budget_bytes = 64ull << 20;
    /// MRU entries per shard examined by the near-miss search. Small by
    /// design: exploration traffic is temporally local, so the profitable
    /// patch base is almost always a recent insertion.
    size_t near_miss_candidates = 8;
    /// Optional group budget shared with other caches (the serving
    /// catalog's global sketch-memory ceiling). See ShardedLruCache.
    std::shared_ptr<CacheBudget> shared_budget;
  };

  explicit SketchCache(const Options& options)
      : options_(options),
        cache_(options.shards, options.budget_bytes, options.shared_budget) {}

  /// Exact lookup of `selection` under its `fingerprint`. A hit must hold
  /// the identical bitmap (fingerprints collide), and is gated on the
  /// requester's generation: an entry inserted by a request that was still
  /// running against an older (since-flushed) generation must never serve
  /// a newer one — its histograms were binned with that generation's edges.
  std::shared_ptr<const CachedSketches> FindExact(const Selection& selection,
                                                  uint64_t fingerprint,
                                                  uint64_t generation);

  /// Cheapest patch base for `wanted`: scans the MRU prefix of every shard
  /// for a same-generation entry with the same row count minimizing
  /// HammingDistance. Returns nullptr when no candidate is within
  /// `max_delta_rows`.
  std::shared_ptr<const CachedSketches> FindNearest(const Selection& wanted,
                                                    uint64_t generation,
                                                    size_t max_delta_rows,
                                                    size_t* delta_rows);

  /// Inserts sketches for `selection` under its fingerprint.
  void Insert(const Selection& selection, uint64_t fingerprint,
              std::shared_ptr<const SelectionSketches> inside, uint64_t generation);

  /// Append migration: every cached selection of `from_generation` is
  /// resized to `new_num_rows` (existing bits kept, appended rows
  /// unselected) and re-inserted under the resized bitmap's fingerprint
  /// as `new_generation`. Sketches are reused as-is — see the header
  /// comment. Entries of any other generation (stale inserts from
  /// requests that outlived a flush) are dropped. Returns the number
  /// migrated.
  size_t MigrateToAppendedRows(size_t new_num_rows, uint64_t from_generation,
                               uint64_t new_generation);

  void Clear() { cache_.Clear(); }
  CacheStats stats() const { return cache_.stats(); }

 private:
  Options options_;
  ShardedLruCache<CachedSketches> cache_;
};

}  // namespace ziggy

#endif  // ZIGGY_SERVE_SKETCH_CACHE_H_
