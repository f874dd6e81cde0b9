#include "serve/sketch_cache.h"

#include <utility>
#include <vector>

namespace ziggy {

namespace {

size_t EntryBytes(const Selection& selection,
                  const std::shared_ptr<const SelectionSketches>& inside) {
  return sizeof(CachedSketches) + selection.num_words() * sizeof(uint64_t) +
         (inside != nullptr ? inside->MemoryUsageBytes() : 0);
}

}  // namespace

std::shared_ptr<const CachedSketches> SketchCache::FindExact(
    const Selection& selection, uint64_t fingerprint, uint64_t generation) {
  std::shared_ptr<const CachedSketches> hit = cache_.Get(fingerprint);
  if (hit == nullptr || hit->generation != generation ||
      !(hit->selection == selection)) {
    return nullptr;
  }
  return hit;
}

std::shared_ptr<const CachedSketches> SketchCache::FindNearest(
    const Selection& wanted, uint64_t generation, size_t max_delta_rows,
    size_t* delta_rows) {
  *delta_rows = 0;
  std::shared_ptr<const CachedSketches> best;
  size_t best_delta = max_delta_rows + 1;
  if (best_delta == 0) return nullptr;  // max_delta_rows == SIZE_MAX guard
  for (const auto& candidate : cache_.CollectRecent(options_.near_miss_candidates)) {
    if (candidate->generation != generation) continue;
    if (candidate->selection.num_rows() != wanted.num_rows()) continue;
    const size_t delta = candidate->selection.HammingDistance(wanted);
    if (delta < best_delta) {
      best_delta = delta;
      best = candidate;
    }
  }
  if (best != nullptr) *delta_rows = best_delta;
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

size_t SketchCache::MigrateToAppendedRows(size_t new_num_rows,
                                          uint64_t from_generation,
                                          uint64_t new_generation) {
  size_t migrated = 0;
  for (auto& [old_key, value] : cache_.Drain()) {
    if (value == nullptr || value->generation != from_generation ||
        value->selection.num_rows() > new_num_rows) {
      continue;
    }
    auto entry = std::make_shared<CachedSketches>(*value);
    entry->selection.Resize(new_num_rows);
    entry->generation = new_generation;
    entry->bytes = EntryBytes(entry->selection, entry->inside);
    const uint64_t new_key = entry->selection.Fingerprint();
    const size_t bytes = entry->bytes;
    cache_.Put(new_key, std::move(entry), bytes);
    ++migrated;
  }
  return migrated;
}

}  // namespace ziggy
