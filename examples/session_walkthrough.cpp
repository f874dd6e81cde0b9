// Session walkthrough: the ExplorationSession layer end to end.
//
// Simulates the explore-inspect-refine loop of a single analyst: each
// refinement reuses the engine's shared profile and its cached sketches
// (an overlapping refinement patches them instead of rescanning), and the
// session's novelty filter keeps already-seen views from crowding out new
// findings. Finishes by emitting the last result as
// JSON — the payload an exploration front-end would consume.

#include <iostream>

#include "common/string_util.h"
#include "data/synthetic.h"
#include "engine/json.h"
#include "engine/session.h"

using namespace ziggy;

int main() {
  SyntheticDataset ds = MakeCrimeDataset().ValueOrDie();
  ZiggyOptions options;
  options.search.min_tightness = 0.3;
  options.search.max_views = 5;
  ZiggyEngine engine = ZiggyEngine::Create(std::move(ds.table), options).ValueOrDie();

  SessionOptions session_options;
  session_options.novelty = SessionOptions::NoveltyPolicy::kSuppress;
  ExplorationSession session(std::move(engine), session_options);

  const std::vector<std::string> refinement_loop = {
      ds.selection_predicate,                      // seed: highest crime
      "violent_crime_rate >= 1.3",                 // widen slightly
      "violent_crime_rate >= 1.3 AND population_0 > 1",  // focus on big cities
      "violent_crime_rate >= 1.3 AND population_0 > 1 AND education_0 < 0",
  };

  for (const auto& q : refinement_loop) {
    std::cout << "ziggy> " << q << "\n";
    Result<Characterization> r = session.Explore(q);
    if (!r.ok()) {
      std::cout << "  " << r.status() << "\n\n";
      continue;
    }
    std::cout << "  " << r->inside_count << " tuples, " << r->views.size()
              << " NEW views (sketches: "
              << SketchSourceToString(r->sketch_source) << ", "
              << FormatDouble(r->timings.total_ms(), 3) << " ms)\n";
    for (const auto& cv : r->views) {
      std::cout << "   - " << cv.explanation.headline << "\n";
    }
    std::cout << "\n";
  }

  const SessionStats& stats = session.stats();
  std::cout << "Session: " << stats.queries_run << " queries, " << stats.views_shown
            << " views shown, " << stats.views_suppressed
            << " repeats suppressed, total preparation "
            << FormatDouble(stats.preparation_ms, 3) << " ms\n";

  // JSON payload for a front-end (last query re-run; repeats suppressed, so
  // novelty is reset first to show a full result).
  session.Reset();
  Characterization last = session.Explore(refinement_loop.back()).ValueOrDie();
  std::cout << "\nJSON for the last query:\n"
            << CharacterizationToJson(last, session.engine().table().schema()) << "\n";
  return 0;
}
