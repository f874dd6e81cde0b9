#include "engine/ziggy_engine.h"

#include <chrono>
#include <sstream>

#include "common/string_util.h"

namespace ziggy {

namespace {

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace

std::string Characterization::ToString(const Schema& schema) const {
  std::ostringstream os;
  os << "Characterized " << inside_count << " selected tuples against "
     << outside_count << " others (" << num_candidates << " candidate views, "
     << views_dropped << " dropped as not significant)\n";
  os << "Stage timings: preparation " << FormatDouble(timings.preparation_ms, 4)
     << " ms, view search " << FormatDouble(timings.search_ms, 4)
     << " ms, post-processing " << FormatDouble(timings.post_processing_ms, 4)
     << " ms\n";
  size_t rank = 1;
  for (const auto& cv : views) {
    os << "\n#" << rank++ << " " << cv.view.ColumnNames(schema)
       << "  score=" << FormatDouble(cv.view.score.total, 3)
       << " tightness=" << FormatDouble(cv.view.tightness, 3)
       << " p=" << FormatDouble(cv.view.aggregated_p_value, 2) << "\n";
    os << "   " << cv.explanation.headline << "\n";
    for (const auto& d : cv.explanation.details) os << "   - " << d << "\n";
  }
  return os.str();
}

Result<ZiggyEngine> ZiggyEngine::Create(Table table, ZiggyOptions options) {
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("cannot characterize an empty table");
  }
  ZIGGY_ASSIGN_OR_RETURN(TableProfile profile,
                         TableProfile::Compute(table, options.profile));
  ZIGGY_ASSIGN_OR_RETURN(Dendrogram dendrogram, BuildColumnDendrogram(profile));
  return ZiggyEngine(std::make_shared<const Table>(std::move(table)),
                     std::make_shared<const TableProfile>(std::move(profile)),
                     std::make_shared<const Dendrogram>(std::move(dendrogram)),
                     std::move(options));
}

Result<ZiggyEngine> ZiggyEngine::CreateShared(
    std::shared_ptr<const Table> table, std::shared_ptr<const TableProfile> profile,
    std::shared_ptr<const Dendrogram> dendrogram, ZiggyOptions options) {
  if (table == nullptr || profile == nullptr || dendrogram == nullptr) {
    return Status::InvalidArgument("shared engine state must be non-null");
  }
  if (table->num_rows() == 0) {
    return Status::InvalidArgument("cannot characterize an empty table");
  }
  if (Status shape = profile->CheckShape(*table); !shape.ok()) {
    return Status::InvalidArgument("shared " + shape.message());
  }
  return ZiggyEngine(std::move(table), std::move(profile), std::move(dendrogram),
                     std::move(options));
}

Result<Characterization> ZiggyEngine::CharacterizeQuery(const std::string& query_text) {
  ZIGGY_ASSIGN_OR_RETURN(ExprPtr predicate, ParseQuery(query_text));
  // Normalization is semantics-preserving; it keeps mechanically assembled
  // refinement predicates (nested ANDs, duplicated atoms) cheap to evaluate.
  predicate = SimplifyPredicate(std::move(predicate));
  ZIGGY_ASSIGN_OR_RETURN(Selection selection, predicate->Evaluate(*table_));
  return Characterize(selection);
}

Result<Characterization> ZiggyEngine::Characterize(const Selection& selection) {
  Characterization out;

  // ---- Stage 1: Preparation ------------------------------------------------
  // Sketches come from the cache (exact hit or patched near miss) or a cold
  // scan; the components are rebuilt from them on every read, so a change
  // of build options applies to the next read, repeat or not.
  auto t0 = std::chrono::steady_clock::now();
  // Providers only handle well-formed selections.
  ZIGGY_RETURN_NOT_OK(
      ValidateCharacterizationInput(*table_, *profile_, selection));
  const uint64_t fp = selection.Fingerprint();
  ProvidedSketches supplied;
  if (sketch_provider_) {
    supplied = sketch_provider_(selection, fp);
  } else {
    if (own_sketches_ == nullptr) {
      own_sketches_ =
          std::make_unique<SketchCache>(SketchCache::kDefaultBudgetBytes);
    }
    ProvideSketchesOptions routine;
    routine.scan_threads = options_.build.num_threads;
    supplied = ProvideSketches(*table_, *profile_, selection, fp,
                               own_sketches_.get(), routine);
  }
  SelectionSketches outside;
  outside.InitShapes(*table_, *profile_);
  outside.DeriveAsComplement(*profile_, *supplied.inside);
  ZIGGY_ASSIGN_OR_RETURN(
      const ComponentTable components,
      BuildComponentsFromSketches(*table_, *profile_, selection,
                                  *supplied.inside, outside, options_.build));
  out.sketch_source = supplied.source;
  out.delta_rows = supplied.delta_rows;
  out.timings.preparation_ms = ElapsedMs(t0);
  out.inside_count = components.inside_count();
  out.outside_count = components.outside_count();

  // ---- Stage 2: View search --------------------------------------------------
  t0 = std::chrono::steady_clock::now();
  if (!view_plan_.has_value() || !view_plan_->Matches(options_.search)) {
    ZIGGY_ASSIGN_OR_RETURN(
        view_plan_, ViewPlan::Build(*profile_, *dendrogram_, options_.search));
  }
  ViewSearchResult search = view_plan_->Search(components, options_.search);
  out.timings.search_ms = ElapsedMs(t0);
  out.num_candidates = search.num_candidates;

  // ---- Stage 3: Post-processing ----------------------------------------------
  t0 = std::chrono::steady_clock::now();
  out.views_dropped = ValidateViews(&search.views, components, options_.validation);
  out.views.reserve(search.views.size());
  for (View& v : search.views) {
    CharacterizedView cv;
    cv.explanation = ExplainView(v, components, table_->schema(), options_.explain);
    cv.view = std::move(v);
    out.views.push_back(std::move(cv));
  }
  out.timings.post_processing_ms = ElapsedMs(t0);
  return out;
}

std::string ZiggyEngine::DendrogramAscii() const {
  return dendrogram_->ToAscii(table_->schema().field_names());
}

}  // namespace ziggy
