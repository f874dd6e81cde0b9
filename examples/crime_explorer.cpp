// Crime explorer: the paper's running example as a program.
//
// "An analyst wants to understand what causes violent crimes in US cities.
// ... she selects the cities with the highest rates of criminality. Her
// database front-end returns a large table with more than a hundred
// columns. Which ones should she inspect?"
//
// This example walks the full workflow: load the (synthetic) crime table,
// characterize the high-crime selection, read the views, re-weight the
// Zig-Dissimilarity to focus on correlation changes, and refine the query —
// the explore-inspect-refine loop Ziggy is designed to support.

#include <iostream>

#include "data/synthetic.h"
#include "common/string_util.h"
#include "engine/ziggy_engine.h"

using namespace ziggy;

namespace {

void Show(const ZiggyEngine& engine, const Characterization& r, size_t top_k) {
  size_t rank = 1;
  for (const auto& cv : r.views) {
    std::cout << "  #" << rank << " " << cv.view.ColumnNames(engine.table().schema())
              << "  score=" << FormatDouble(cv.view.score.total, 3) << "\n";
    std::cout << "     " << cv.explanation.headline << "\n";
    if (++rank > top_k) break;
  }
}

}  // namespace

int main() {
  std::cout << "== Step 0: load the communities-and-crime table ==\n";
  SyntheticDataset ds = MakeCrimeDataset().ValueOrDie();
  std::cout << ds.table.num_rows() << " communities, " << ds.table.num_columns()
            << " indicators\n\n";

  ZiggyOptions options;
  options.search.min_tightness = 0.3;
  options.search.max_views = 8;
  ZiggyEngine engine = ZiggyEngine::Create(std::move(ds.table), options).ValueOrDie();

  std::cout << "== Step 1: seed the exploration with the most dangerous cities ==\n";
  const std::string seed_query = ds.selection_predicate;
  std::cout << "query: " << seed_query << "\n";
  Characterization r1 = engine.CharacterizeQuery(seed_query).ValueOrDie();
  std::cout << r1.inside_count << " cities selected; " << r1.views.size()
            << " characteristic views found in "
            << FormatDouble(r1.timings.total_ms(), 3) << " ms:\n";
  Show(engine, r1, 5);

  std::cout << "\n== Step 2: the user only cares about structural changes: "
               "re-weight toward correlation shifts ==\n";
  engine.mutable_options()->search.weights = ZigWeights{
      /*mean_shift=*/0.2,        /*dispersion_shift=*/0.2, /*correlation_shift=*/2.0,
      /*frequency_shift=*/0.2,   /*association_shift=*/1.0,
      /*contingency_shift=*/1.0,
  };
  Characterization r2 = engine.CharacterizeQuery(seed_query).ValueOrDie();
  std::cout << "same query, correlation-focused ranking:\n";
  Show(engine, r2, 5);
  engine.mutable_options()->search.weights = ZigWeights{};

  std::cout << "\n== Step 3: refine - dense AND poorly educated communities ==\n";
  const std::string refined =
      "population_1 > 1.0 AND education_0 < -0.5";
  std::cout << "query: " << refined << "\n";
  Characterization r3 = engine.CharacterizeQuery(refined).ValueOrDie();
  std::cout << r3.inside_count << " cities selected; views:\n";
  Show(engine, r3, 5);

  std::cout << "\n== Step 4: every query reused the shared profile ==\n";
  std::cout << "sketches: step 1 " << SketchSourceToString(r1.sketch_source)
            << ", step 2 " << SketchSourceToString(r2.sketch_source)
            << ", step 3 " << SketchSourceToString(r3.sketch_source)
            << "; profile memory "
            << engine.profile().MemoryUsageBytes() / 1024 << " KiB\n";
  return 0;
}
