#include "explain/text.h"

#include <algorithm>

#include "common/string_util.h"
#include "zig/dissimilarity.h"

namespace ziggy {

namespace {

// A headline clause for one component, e.g. "particularly high values of
// population". Sign conventions: positive mean-shift = inside larger.
std::string ClauseFor(const ZigComponent& c, const Schema& schema) {
  const std::string a = schema.field(c.col_a).name;
  const std::string b = c.col_b == kNoColumn ? "" : schema.field(c.col_b).name;
  switch (c.kind) {
    case ComponentKind::kMeanShift:
      return (c.effect.value > 0 ? "particularly high values of "
                                 : "particularly low values of ") +
             a;
    case ComponentKind::kDispersionShift:
      return (c.effect.value > 0 ? "a high variance of " : "a low variance of ") + a;
    case ComponentKind::kCorrelationShift:
      return (c.effect.value > 0 ? "a stronger correlation between "
                                 : "a weaker correlation between ") +
             a + " and " + b;
    case ComponentKind::kFrequencyShift:
      if (!c.top_category.empty()) {
        return "an over-representation of '" + c.top_category + "' in " + a;
      }
      return "an unusual distribution of " + a;
    case ComponentKind::kAssociationShift:
      return (c.effect.value > 0 ? "a stronger association between "
                                 : "a weaker association between ") +
             a + " and " + b;
    case ComponentKind::kContingencyShift:
      return (c.effect.value > 0 ? "a stronger dependency between "
                                 : "a weaker dependency between ") +
             a + " and " + b;
    case ComponentKind::kRankShift:
      return (c.effect.value > 0 ? "systematically higher values of "
                                 : "systematically lower values of ") +
             a;
    case ComponentKind::kDistributionShift:
      return "a concentration of " + a + " in the range " + c.detail();
  }
  return "an unusual distribution of " + a;
}

std::string JoinClauses(const std::vector<std::string>& clauses) {
  if (clauses.empty()) return "";
  if (clauses.size() == 1) return clauses[0];
  std::string out;
  for (size_t i = 0; i + 1 < clauses.size(); ++i) {
    if (i > 0) out += ", ";
    out += clauses[i];
  }
  out += " and " + clauses.back();
  return out;
}

}  // namespace

std::string DescribeComponent(const ZigComponent& c, const Schema& schema) {
  const std::string a = schema.field(c.col_a).name;
  const std::string b = c.col_b == kNoColumn ? "" : schema.field(c.col_b).name;
  std::string out = ComponentKindToString(c.kind);
  out += " on ";
  out += a;
  if (!b.empty()) out += " x " + b;
  out += ": ";
  switch (c.kind) {
    case ComponentKind::kMeanShift:
      out += "mean " + FormatDouble(c.inside_value) + " inside vs " +
             FormatDouble(c.outside_value) + " outside (g=" +
             FormatDouble(c.effect.value, 3) + ")";
      break;
    case ComponentKind::kDispersionShift:
      out += "stddev " + FormatDouble(c.inside_value) + " inside vs " +
             FormatDouble(c.outside_value) + " outside (log-ratio=" +
             FormatDouble(c.effect.value, 3) + ")";
      break;
    case ComponentKind::kCorrelationShift:
      out += "r=" + FormatDouble(c.inside_value, 3) + " inside vs " +
             FormatDouble(c.outside_value, 3) + " outside";
      break;
    case ComponentKind::kFrequencyShift:
      out += "total-variation distance " + FormatDouble(c.inside_value, 3);
      if (!c.top_category.empty()) {
        out += ", most over-represented: '" + c.top_category + "'";
      }
      break;
    case ComponentKind::kAssociationShift:
      out += "eta=" + FormatDouble(c.inside_value, 3) + " inside vs " +
             FormatDouble(c.outside_value, 3) + " outside";
      break;
    case ComponentKind::kContingencyShift:
      out += "V=" + FormatDouble(c.inside_value, 3) + " inside vs " +
             FormatDouble(c.outside_value, 3) + " outside";
      break;
    case ComponentKind::kRankShift:
      out += "P(inside > outside) = " + FormatDouble(c.inside_value, 3) +
             " (Cliff's delta=" + FormatDouble(c.effect.value, 3) + ")";
      break;
    case ComponentKind::kDistributionShift:
      out += "histogram total-variation distance " + FormatDouble(c.inside_value, 3);
      out += ", mass concentrated in " + c.detail();
      break;
  }
  out += ", p=" + FormatDouble(c.p_value(), 2);
  out += " [n_in=" + std::to_string(c.inside_n) +
         ", n_out=" + std::to_string(c.outside_n) + "]";
  return out;
}

Explanation ExplainView(const View& view, const ComponentTable& components,
                        const Schema& schema, const ExplainOptions& options) {
  Explanation out;
  out.confidence = 1.0 - view.aggregated_p_value;

  // Gather the view's components, most confident first. Each p-value is
  // evaluated once here, not inside the sort comparator.
  struct Ranked {
    double p_value;
    double magnitude;
    const ZigComponent* component;
  };
  const ViewMembership member(view.columns);
  std::vector<Ranked> covered;
  for (const auto& c : components.components()) {
    if (member.Covers(c)) covered.push_back({c.p_value(), c.Magnitude(), &c});
  }
  std::stable_sort(covered.begin(), covered.end(),
                   [](const Ranked& x, const Ranked& y) {
                     if (x.p_value != y.p_value) return x.p_value < y.p_value;
                     return x.magnitude > y.magnitude;
                   });

  std::vector<std::string> clauses;
  for (const Ranked& r : covered) {
    if (clauses.size() >= options.max_headline_components) break;
    if (r.p_value > options.max_p_value) break;  // sorted: all further worse
    clauses.push_back(ClauseFor(*r.component, schema));
    if (options.include_details) {
      out.details.push_back(DescribeComponent(*r.component, schema));
    }
  }

  // Column list for the sentence prefix.
  std::vector<std::string> names;
  names.reserve(view.columns.size());
  for (size_t c : view.columns) names.push_back(schema.field(c).name);
  const std::string cols = JoinClauses(names);

  if (clauses.empty()) {
    out.headline = "On the column" + std::string(names.size() > 1 ? "s " : " ") + cols +
                   ", your selection differs from the rest of the data, but no "
                   "single indicator is individually significant.";
  } else {
    out.headline = "On the column" + std::string(names.size() > 1 ? "s " : " ") + cols +
                   ", your selection has " + JoinClauses(clauses) + ".";
  }
  return out;
}

}  // namespace ziggy
