#include "engine/json.h"

namespace ziggy {

namespace {

// Every double in a characterization body keeps 12 significant digits.
constexpr int kDigits = 12;

}  // namespace

std::string CharacterizationToJson(const Characterization& result,
                                   const Schema& schema) {
  JsonWriter w;
  w.BeginObject().Key("inside_count").Int(result.inside_count);
  w.Key("outside_count").Int(result.outside_count);
  w.Key("num_candidates").Uint(result.num_candidates);
  w.Key("views_dropped").Uint(result.views_dropped);
  w.Key("timings_ms").BeginObject();
  w.Key("preparation").Double(result.timings.preparation_ms, kDigits);
  w.Key("view_search").Double(result.timings.search_ms, kDigits);
  w.Key("post_processing").Double(result.timings.post_processing_ms, kDigits);
  w.EndObject().Key("views").BeginArray();
  for (size_t i = 0; i < result.views.size(); ++i) {
    const View& view = result.views[i].view;
    const Explanation& explanation = result.views[i].explanation;
    w.BeginObject().Key("rank").Uint(i + 1).Key("columns").BeginArray();
    for (const size_t c : view.columns) w.String(schema.field(c).name);
    w.EndArray().Key("score").Double(view.score.total, kDigits);
    w.Key("score_breakdown").BeginObject();
    for (size_t k = 0; k < kNumComponentKinds; ++k) {
      if (view.score.count_per_kind[k] == 0) continue;
      w.Key(ComponentKindToString(static_cast<ComponentKind>(k)));
      w.Double(view.score.per_kind[k], kDigits);
    }
    w.EndObject().Key("tightness").Double(view.tightness, kDigits);
    w.Key("p_value").Double(view.aggregated_p_value, kDigits);
    w.Key("headline").String(explanation.headline);
    w.Key("details").BeginArray();
    for (const std::string& detail : explanation.details) w.String(detail);
    w.EndArray().EndObject();
  }
  return w.EndArray().EndObject().Take();
}

}  // namespace ziggy
