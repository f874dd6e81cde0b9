#include "serve/sketch_cache.h"

#include <utility>

namespace ziggy {

namespace {

size_t EntryBytes(const Selection& selection,
                  const std::shared_ptr<const SelectionSketches>& inside) {
  return sizeof(CachedSketches) + selection.num_words() * sizeof(uint64_t) +
         (inside != nullptr ? inside->MemoryUsageBytes() : 0);
}

}  // namespace

std::shared_ptr<const CachedSketches> SketchCache::Find(
    const Selection& selection, uint64_t fingerprint, uint64_t generation,
    size_t max_delta_rows, size_t* delta_rows) {
  *delta_rows = 0;
  if (auto hit = cache_.Get(fingerprint);
      hit != nullptr && hit->generation == generation &&
      hit->selection == selection) {
    return hit;
  }
  if (max_delta_rows == 0) return nullptr;
  std::shared_ptr<const CachedSketches> best;
  size_t best_delta = 0;
  for (const auto& candidate : cache_.CollectRecent(kRecentPerShard)) {
    if (candidate->generation != generation) continue;
    if (candidate->selection.num_rows() != selection.num_rows()) continue;
    const size_t delta = candidate->selection.HammingDistance(selection);
    if (delta <= max_delta_rows && (best == nullptr || delta < best_delta)) {
      best_delta = delta;
      best = candidate;
    }
  }
  *delta_rows = best_delta;
  return best;
}

void SketchCache::Insert(const Selection& selection, uint64_t fingerprint,
                         std::shared_ptr<const SelectionSketches> inside,
                         uint64_t generation) {
  auto entry = std::make_shared<CachedSketches>();
  entry->selection = selection;
  entry->inside = std::move(inside);
  entry->generation = generation;
  entry->bytes = EntryBytes(entry->selection, entry->inside);
  const size_t bytes = entry->bytes;
  cache_.Put(fingerprint, std::move(entry), bytes);
}

}  // namespace ziggy
