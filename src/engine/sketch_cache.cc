#include "engine/sketch_cache.h"

#include <utility>

#include "obs/trace.h"

namespace ziggy {

namespace {

size_t EntryBytes(const Selection& selection,
                  const std::shared_ptr<const SelectionSketches>& inside) {
  return sizeof(CachedSketches) + selection.num_words() * sizeof(uint64_t) +
         (inside != nullptr ? inside->MemoryUsageBytes() : 0);
}

}  // namespace

const char* SketchSourceToString(SketchSource source) {
  switch (source) {
    case SketchSource::kCacheExact:
      return "cache-exact";
    case SketchSource::kCachePatched:
      return "cache-patched";
    case SketchSource::kServerScan:
      return "server-scan";
  }
  return "unknown";
}

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

ProvidedSketches ProvideSketches(const Table& table,
                                 const TableProfile& profile,
                                 const Selection& selection,
                                 uint64_t fingerprint, SketchCache* cache,
                                 const ProvideSketchesOptions& options) {
  ProvidedSketches out;
  if (cache != nullptr) {
    // Spans the lookup and the patch; a hit returns and a miss falls
    // through, both before any scan starts.
    obs::TraceSpan lookup_span("sketch_lookup", options.clock,
                               options.lookup_us);
    const size_t budget =
        options.patch_near_misses
            ? SelectionSketches::MaxPatchDelta(selection.Count())
            : 0;
    size_t delta = 0;
    auto base = cache->Find(selection, fingerprint, options.generation, budget,
                            &delta);
    if (base != nullptr && delta == 0) {
      out.inside = base->inside;
      out.source = SketchSource::kCacheExact;
      return out;
    }
    if (base != nullptr) {
      // Patch a copy: the cached base stays immutable for its readers.
      auto patched = std::make_shared<SelectionSketches>(*base->inside);
      patched->ApplyDelta(table, profile, base->selection, selection);
      cache->Insert(selection, fingerprint, patched, options.generation);
      out.inside = std::move(patched);
      out.source = SketchSource::kCachePatched;
      out.delta_rows = delta;
      return out;
    }
  }
  std::shared_ptr<const SelectionSketches> built;
  {
    obs::TraceSpan scan_span("scan", options.clock, options.scan_us);
    built = std::make_shared<const SelectionSketches>(SelectionSketches::Build(
        table, profile, selection, options.scan_threads));
  }
  if (cache != nullptr) {
    cache->Insert(selection, fingerprint, built, options.generation);
  }
  out.inside = std::move(built);
  out.source = SketchSource::kServerScan;
  return out;
}

}  // namespace ziggy
