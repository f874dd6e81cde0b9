#include "engine/json.h"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace ziggy {

namespace {

// JSON has no NaN/Infinity; map them to null.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

std::string CharacterizationToJson(const Characterization& result,
                                   const Schema& schema) {
  std::ostringstream os;
  os << "{";
  os << "\"inside_count\":" << result.inside_count;
  os << ",\"outside_count\":" << result.outside_count;
  os << ",\"num_candidates\":" << result.num_candidates;
  os << ",\"views_dropped\":" << result.views_dropped;
  os << ",\"cache_hit\":" << (result.cache_hit ? "true" : "false");
  os << ",\"timings_ms\":{"
     << "\"preparation\":" << JsonNumber(result.timings.preparation_ms)
     << ",\"view_search\":" << JsonNumber(result.timings.search_ms)
     << ",\"post_processing\":" << JsonNumber(result.timings.post_processing_ms) << "}";
  os << ",\"views\":[";
  for (size_t i = 0; i < result.views.size(); ++i) {
    const CharacterizedView& cv = result.views[i];
    if (i > 0) os << ",";
    os << "{\"rank\":" << (i + 1);
    os << ",\"columns\":[";
    for (size_t j = 0; j < cv.view.columns.size(); ++j) {
      if (j > 0) os << ",";
      os << "\"" << JsonEscape(schema.field(cv.view.columns[j]).name) << "\"";
    }
    os << "]";
    os << ",\"score\":" << JsonNumber(cv.view.score.total);
    os << ",\"score_breakdown\":{";
    bool first = true;
    for (size_t k = 0; k < kNumComponentKinds; ++k) {
      if (cv.view.score.count_per_kind[k] == 0) continue;
      if (!first) os << ",";
      first = false;
      os << "\"" << ComponentKindToString(static_cast<ComponentKind>(k))
         << "\":" << JsonNumber(cv.view.score.per_kind[k]);
    }
    os << "}";
    os << ",\"tightness\":" << JsonNumber(cv.view.tightness);
    os << ",\"p_value\":" << JsonNumber(cv.view.aggregated_p_value);
    os << ",\"headline\":\"" << JsonEscape(cv.explanation.headline) << "\"";
    os << ",\"details\":[";
    for (size_t j = 0; j < cv.explanation.details.size(); ++j) {
      if (j > 0) os << ",";
      os << "\"" << JsonEscape(cv.explanation.details[j]) << "\"";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

}  // namespace ziggy
