// ZiggyEngine: the public facade of the library — the "tuple description
// engine" the paper's conclusion promises to distribute "as a library, to
// be included into external exploration systems".
//
// Lifecycle: construct once per table (the profile — Ziggy's shared
// statistics — is computed here), then call CharacterizeQuery() for every
// exploration query. Per-query work follows the three-stage pipeline of
// paper Figure 4: Preparation → View Search → Post-Processing.
//
// Ownership: the engine holds its table, profile and dendrogram as shared
// *immutable* state. A stand-alone engine simply owns the only reference;
// the serving layer (src/serve) creates one engine per session over the
// same shared snapshot, so a hundred sessions cost a hundred pointer
// triples, not a hundred profiles. Immutability is what makes concurrent
// sessions safe: nothing behind these pointers is ever written after
// construction.

#ifndef ZIGGY_ENGINE_ZIGGY_ENGINE_H_
#define ZIGGY_ENGINE_ZIGGY_ENGINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/sketch_cache.h"
#include "explain/text.h"
#include "explain/validation.h"
#include "query/parser.h"
#include "query/simplify.h"
#include "storage/table.h"
#include "views/view_search.h"
#include "zig/component_builder.h"
#include "zig/profile.h"
#include "zig/selection_sketches.h"

namespace ziggy {

/// \brief All engine knobs, grouped per pipeline stage.
struct ZiggyOptions {
  ProfileOptions profile;
  ComponentBuildOptions build;
  ViewSearchOptions search;
  ValidationOptions validation;
  ExplainOptions explain;
};

/// \brief Wall-clock cost of each pipeline stage, in milliseconds.
struct StageTimings {
  double preparation_ms = 0.0;
  double search_ms = 0.0;
  double post_processing_ms = 0.0;

  double total_ms() const { return preparation_ms + search_ms + post_processing_ms; }
};

/// \brief One output view with its explanation.
struct CharacterizedView {
  View view;
  Explanation explanation;
};

/// \brief Full result of characterizing one query.
struct Characterization {
  std::vector<CharacterizedView> views;  ///< ranked by descending score
  StageTimings timings;
  int64_t inside_count = 0;
  int64_t outside_count = 0;
  size_t num_candidates = 0;   ///< candidate views generated
  size_t views_dropped = 0;    ///< candidates rejected as not significant
  /// Rows patched for a kCachePatched read (0 otherwise).
  size_t delta_rows = 0;
  /// Provenance of the inside sketches.
  SketchSource sketch_source = SketchSource::kServerScan;

  /// Multi-line human-readable report (used by examples and the REPL).
  std::string ToString(const Schema& schema) const;
};

/// \brief The query characterization engine.
class ZiggyEngine {
 public:
  /// Hook through which a serving layer supplies a validated selection's
  /// inside sketches (by fingerprint) from its shared cache. Without one,
  /// the engine runs the same routine, ProvideSketches, over a private
  /// SketchCache of SketchCache::kDefaultBudgetBytes, allocated on the
  /// first read that needs sketches.
  using SketchProvider = std::function<ProvidedSketches(
      const Selection& selection, uint64_t fingerprint)>;

  /// Builds the engine; computes the shared table profile (one-off cost,
  /// amortized over all subsequent queries).
  static Result<ZiggyEngine> Create(Table table, ZiggyOptions options = {});

  /// Builds an engine over externally owned shared state (the serving
  /// layer's per-session constructor: profile and dendrogram are computed
  /// once per table generation and shared by every session). All three
  /// pointers must be non-null; the state must be internally consistent
  /// (profile computed from `table`, dendrogram from `profile`).
  static Result<ZiggyEngine> CreateShared(
      std::shared_ptr<const Table> table,
      std::shared_ptr<const TableProfile> profile,
      std::shared_ptr<const Dendrogram> dendrogram, ZiggyOptions options = {});

  /// Characterizes the tuples selected by a query string. Accepts a bare
  /// predicate ("crime_rate > 1200 AND population > 5e5") or a full
  /// SELECT ... WHERE statement.
  Result<Characterization> CharacterizeQuery(const std::string& query_text);

  /// Characterizes an explicit selection (for front-ends that already
  /// evaluated the query themselves).
  Result<Characterization> Characterize(const Selection& selection);

  const Table& table() const { return *table_; }
  const TableProfile& profile() const { return *profile_; }
  const std::shared_ptr<const Table>& shared_table() const { return table_; }
  const std::shared_ptr<const TableProfile>& shared_profile() const {
    return profile_;
  }
  const std::shared_ptr<const Dendrogram>& shared_dendrogram() const {
    return dendrogram_;
  }
  const ZiggyOptions& options() const { return options_; }
  /// Options may be tuned between queries (e.g. moving the MIN_tight
  /// slider); the profile is unaffected.
  ZiggyOptions* mutable_options() { return &options_; }

  /// Installs (or clears, with nullptr) the external sketch provider.
  void set_sketch_provider(SketchProvider provider) {
    sketch_provider_ = std::move(provider);
  }

  /// ASCII dendrogram over all columns — the paper's "visual support to
  /// help setting the parameter MIN_tight".
  std::string DendrogramAscii() const;

 private:
  ZiggyEngine(std::shared_ptr<const Table> table,
              std::shared_ptr<const TableProfile> profile,
              std::shared_ptr<const Dendrogram> dendrogram, ZiggyOptions options)
      : table_(std::move(table)),
        profile_(std::move(profile)),
        dendrogram_(std::move(dendrogram)),
        options_(std::move(options)) {}

  std::shared_ptr<const Table> table_;
  std::shared_ptr<const TableProfile> profile_;
  // The column dendrogram depends only on the profile; computed once and
  // shared by every query's view search.
  std::shared_ptr<const Dendrogram> dendrogram_;
  ZiggyOptions options_;
  SketchProvider sketch_provider_;
  // Sketches of this engine's earlier selections when no provider is
  // installed: exact repeats are hits and overlapping refinements patch
  // (exploration queries usually overlap).
  std::unique_ptr<SketchCache> own_sketches_;
  // View search's query-independent half (candidates and their column
  // index): built from dendrogram_ on the first read, rebuilt when the
  // structural search options change.
  std::optional<ViewPlan> view_plan_;
};

}  // namespace ziggy

#endif  // ZIGGY_ENGINE_ZIGGY_ENGINE_H_
