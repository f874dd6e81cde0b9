// Concurrency and caching primitives of the serving layer.
//
//  * StripedMutex — a fixed pool of mutexes indexed by hash. Independent
//    keys contend only when they collide on a stripe, so N concurrent
//    sessions touching different cache shards proceed in parallel.
//  * ShardedLruCache<V> — a byte-budgeted LRU cache over uint64 keys,
//    partitioned into power-of-two shards, each guarded by one stripe of a
//    StripedMutex. Values are held as shared_ptr<const V>: a reader that
//    obtained an entry keeps it alive even if the entry is evicted (or the
//    whole cache cleared) a microsecond later — eviction never invalidates
//    in-flight readers.
//
// The cache is deliberately *not* transparent: callers decide what a key
// means (the serving layer uses selection fingerprints) and what to do on a
// miss. CollectRecent exposes the per-shard MRU prefix so the serving layer
// can run similarity scans (XOR-delta near-miss reuse) without a global
// lock.

#ifndef ZIGGY_COMMON_CACHE_H_
#define ZIGGY_COMMON_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/sync.h"

namespace ziggy {

/// \brief Fixed pool of mutexes indexed by hash (lock striping). All stripes
/// share one LockRank — callers must never hold two stripes at once (the
/// rank checker enforces this in debug builds).
class StripedMutex {
 public:
  /// `stripes` is rounded up to a power of two (minimum 1).
  explicit StripedMutex(size_t stripes = 16,
                        LockRank rank = LockRank::kCacheStripe,
                        const char* site = "cache.stripe") {
    size_t n = 1;
    while (n < stripes) n <<= 1;
    for (size_t i = 0; i < n; ++i) mutexes_.emplace_back(rank, site);
  }

  size_t num_stripes() const { return mutexes_.size(); }
  size_t StripeOf(uint64_t hash) const {
    // Fold the high bits in: splitmix64 fingerprints are well mixed, but
    // sequential keys (session ids) are not.
    const uint64_t mixed = hash ^ (hash >> 32);
    return static_cast<size_t>(mixed) & (mutexes_.size() - 1);
  }
  Mutex& MutexFor(uint64_t hash) { return mutexes_[StripeOf(hash)]; }
  Mutex& MutexAt(size_t stripe) { return mutexes_[stripe]; }

 private:
  // deque: Mutex is neither movable nor default-constructible (it carries a
  // rank and site name), so grow in place.
  std::deque<Mutex> mutexes_;
};

/// \brief Shared byte-budget ledger for a *group* of caches (the serving
/// catalog charges every table's sketch cache against one global budget).
/// Purely accounting: caches charge/release bytes here and consult
/// OverBudget() to decide when to shed their own LRU entries, so
/// enforcement stays cooperative and no cross-cache locking exists.
class CacheBudget {
 public:
  explicit CacheBudget(size_t total_bytes) : total_(total_bytes) {}

  size_t total_bytes() const { return total_; }
  size_t used_bytes() const { return used_.load(std::memory_order_relaxed); }
  bool OverBudget() const { return used_bytes() > total_; }

  void Charge(size_t bytes) { used_.fetch_add(bytes, std::memory_order_relaxed); }
  void Release(size_t bytes) { used_.fetch_sub(bytes, std::memory_order_relaxed); }

 private:
  const size_t total_;
  std::atomic<size_t> used_{0};
};

/// \brief Aggregate cache counters (monotonic; read with stats()).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t bytes_in_use = 0;
  uint64_t entries = 0;
};

/// \brief Sharded, byte-budgeted LRU map from uint64 keys to immutable
/// values. Thread-safe; per-shard locking only.
template <typename V>
class ShardedLruCache {
 public:
  using ValuePtr = std::shared_ptr<const V>;

  /// `budget_bytes` is split evenly across shards; a Put larger than one
  /// shard's budget is still admitted (it evicts everything else in the
  /// shard) so that a single oversized working set degrades to "cache of
  /// one" instead of thrashing to zero.
  ///
  /// `shared_budget`, when set, is a second, *global* ceiling spanning
  /// several caches: every byte held here is also charged there, and a Put
  /// that leaves the group over budget sheds this cache's own LRU entries
  /// (never another cache's — each member sheds on its own next Put) until
  /// the group fits or only the new entry remains.
  ShardedLruCache(size_t shards, size_t budget_bytes,
                  std::shared_ptr<CacheBudget> shared_budget = nullptr)
      : locks_(shards),
        shards_(locks_.num_stripes()),
        shared_budget_(std::move(shared_budget)) {
    per_shard_budget_ = budget_bytes / shards_.size();
  }

  ~ShardedLruCache() { Clear(); }  // returns charged bytes to shared_budget_

  /// Looks up `key`; promotes the entry to MRU on hit.
  ValuePtr Get(uint64_t key) {
    Shard& shard = ShardFor(key);
    MutexLock lock(locks_.MutexFor(key));
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second->value;
  }

  /// Inserts (or replaces) `key`; evicts LRU entries past the shard budget
  /// and, when a shared budget is attached, past the group budget too.
  void Put(uint64_t key, ValuePtr value, size_t bytes) {
    {
      Shard& shard = ShardFor(key);
      MutexLock lock(locks_.MutexFor(key));
      auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        shard.bytes -= it->second->bytes;
        TrackSub(it->second->bytes);
        shard.lru.erase(it->second);
        shard.index.erase(it);
        entries_.fetch_sub(1, std::memory_order_relaxed);
      }
      shard.lru.push_front(Entry{key, std::move(value), bytes});
      shard.index[key] = shard.lru.begin();
      shard.bytes += bytes;
      TrackAdd(bytes);
      insertions_.fetch_add(1, std::memory_order_relaxed);
      entries_.fetch_add(1, std::memory_order_relaxed);
      while (shard.bytes > per_shard_budget_ && shard.lru.size() > 1) {
        EvictBack(&shard);
      }
    }
    EnforceSharedBudget(key);
  }

  /// Removes `key` if present.
  void Erase(uint64_t key) {
    Shard& shard = ShardFor(key);
    MutexLock lock(locks_.MutexFor(key));
    auto it = shard.index.find(key);
    if (it == shard.index.end()) return;
    shard.bytes -= it->second->bytes;
    TrackSub(it->second->bytes);
    shard.lru.erase(it->second);
    shard.index.erase(it);
    entries_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Up to `max_per_shard` most-recently-used values from every shard (the
  /// near-miss candidate pool). Entries are returned as shared_ptrs; the
  /// scan itself holds each shard lock only while copying pointers.
  std::vector<ValuePtr> CollectRecent(size_t max_per_shard) {
    std::vector<ValuePtr> out;
    for (size_t s = 0; s < shards_.size(); ++s) {
      MutexLock lock(locks_.MutexAt(s));
      size_t taken = 0;
      for (const Entry& e : shards_[s].lru) {
        if (taken++ >= max_per_shard) break;
        out.push_back(e.value);
      }
    }
    return out;
  }

  /// Drops every entry. Each shard's values are released after its lock.
  void Clear() {
    for (size_t s = 0; s < shards_.size(); ++s) {
      std::list<Entry> dropped;
      MutexLock lock(locks_.MutexAt(s));
      entries_.fetch_sub(shards_[s].lru.size(), std::memory_order_relaxed);
      TrackSub(shards_[s].bytes);
      dropped.swap(shards_[s].lru);
      shards_[s].index.clear();
      shards_[s].bytes = 0;
    }
  }

  CacheStats stats() const {
    CacheStats st;
    st.hits = hits_.load(std::memory_order_relaxed);
    st.misses = misses_.load(std::memory_order_relaxed);
    st.insertions = insertions_.load(std::memory_order_relaxed);
    st.evictions = evictions_.load(std::memory_order_relaxed);
    st.bytes_in_use = bytes_.load(std::memory_order_relaxed);
    st.entries = entries_.load(std::memory_order_relaxed);
    return st;
  }

  size_t num_shards() const { return shards_.size(); }
  const std::shared_ptr<CacheBudget>& shared_budget() const {
    return shared_budget_;
  }

 private:
  struct Entry {
    uint64_t key;
    ValuePtr value;
    size_t bytes;
  };
  struct Shard {
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<uint64_t, typename std::list<Entry>::iterator> index;
    size_t bytes = 0;
  };

  Shard& ShardFor(uint64_t key) { return shards_[locks_.StripeOf(key)]; }

  void TrackAdd(size_t bytes) {
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    if (shared_budget_) shared_budget_->Charge(bytes);
  }
  void TrackSub(size_t bytes) {
    bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    if (shared_budget_) shared_budget_->Release(bytes);
  }

  /// Caller holds the shard lock.
  void EvictBack(Shard* shard) {
    const Entry& victim = shard->lru.back();
    shard->bytes -= victim.bytes;
    TrackSub(victim.bytes);
    shard->index.erase(victim.key);
    shard->lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Sheds this cache's LRU entries (one shard lock at a time, never two)
  /// until the shared group budget fits or only `keep_key` — the entry the
  /// caller just inserted — remains evictable here.
  void EnforceSharedBudget(uint64_t keep_key) {
    if (shared_budget_ == nullptr || !shared_budget_->OverBudget()) return;
    bool evicted = true;
    while (shared_budget_->OverBudget() && evicted) {
      evicted = false;
      for (size_t s = 0; s < shards_.size() && shared_budget_->OverBudget();
           ++s) {
        MutexLock lock(locks_.MutexAt(s));
        Shard& shard = shards_[s];
        while (shared_budget_->OverBudget() && !shard.lru.empty() &&
               shard.lru.back().key != keep_key) {
          EvictBack(&shard);
          evicted = true;
        }
      }
    }
  }

  StripedMutex locks_;
  std::vector<Shard> shards_;
  std::shared_ptr<CacheBudget> shared_budget_;
  size_t per_shard_budget_ = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> entries_{0};
};

}  // namespace ziggy

#endif  // ZIGGY_COMMON_CACHE_H_
