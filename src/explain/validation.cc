#include "explain/validation.h"

#include <algorithm>

#include "common/logging.h"
#include "zig/dissimilarity.h"

namespace ziggy {

std::vector<double> CollectViewPValues(const View& view,
                                       const ComponentTable& components) {
  std::vector<double> out;
  const ViewMembership member(view.columns);
  for (const auto& c : components.components()) {
    if (member.Covers(c)) out.push_back(c.p_value());
  }
  return out;
}

size_t ValidateViews(std::vector<View>* views, const ComponentTable& components,
                     const ValidationOptions& options) {
  ZIGGY_CHECK(views != nullptr);
  for (View& v : *views) {
    const std::vector<double> ps = CollectViewPValues(v, components);
    v.aggregated_p_value = AggregatePValues(ps, options.method);
  }
  if (!options.drop_insignificant) return 0;
  const size_t before = views->size();
  views->erase(std::remove_if(views->begin(), views->end(),
                              [&options](const View& v) {
                                return v.aggregated_p_value > options.max_p_value;
                              }),
               views->end());
  return before - views->size();
}

}  // namespace ziggy
