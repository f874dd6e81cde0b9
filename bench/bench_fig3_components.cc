// Experiment F3 — reproduces paper Figure 3: "Examples of Zig-Components".
//
// The figure decomposes the dissimilarity between the selection and the
// rest on a two-column view into three verifiable indicators: difference
// of means, difference of standard deviations, difference of correlation
// coefficients. This harness plants each difference separately, prints the
// corresponding component values and significance, and shows that each
// component fires on (and only on) its own kind of difference.

#include <iostream>

#include "bench_util.h"
#include "common/random.h"
#include "zig/component_builder.h"

using namespace ziggy;
using namespace ziggy::bench;

namespace {

struct Planted {
  std::string name;
  double mean_shift;
  double scale;
  bool break_correlation;
};

void RunCase(const Planted& spec) {
  Rng rng(1234);
  const size_t n = 4000;
  std::vector<double> x(n);
  std::vector<double> y(n);
  Selection sel(n);
  for (size_t i = 0; i < n; ++i) {
    const bool inside = i < n / 5;
    if (inside) sel.Set(i);
    const double f = rng.Normal();
    const double fx = (inside && spec.break_correlation) ? rng.Normal() : f;
    const double fy = (inside && spec.break_correlation) ? rng.Normal() : f;
    const double shift = inside ? spec.mean_shift : 0.0;
    const double scale = inside ? spec.scale : 1.0;
    x[i] = shift + scale * (0.85 * fx + 0.53 * rng.Normal());
    y[i] = shift + scale * (0.85 * fy + 0.53 * rng.Normal());
  }
  Table t = Table::FromColumns(
                {Column::FromNumeric("population", x), Column::FromNumeric("density", y)})
                .ValueOrDie();
  TableProfile profile = TableProfile::Compute(t).ValueOrDie();
  ComponentTable ct = BuildComponents(t, profile, sel).ValueOrDie();

  std::cout << "--- planted difference: " << spec.name << " ---\n";
  ResultTable table({"Zig-Component", "inside", "outside", "effect", "p-value"});
  for (const auto& c : ct.components()) {
    std::string cols = t.schema().field(c.col_a).name;
    if (c.col_b != kNoColumn) cols += " x " + t.schema().field(c.col_b).name;
    table.AddRow({std::string(ComponentKindToString(c.kind)) + " (" + cols + ")",
                  Fmt(c.inside_value), Fmt(c.outside_value), Fmt(c.effect.value),
                  Fmt(c.p_value(), 2)});
  }
  table.Print();
  std::cout << "\n";
}

}  // namespace

int main() {
  std::cout << "=== F3: Figure 3 reproduction - the Zig-Components ===\n\n";
  std::cout << "Each case plants exactly one kind of difference on the pair "
               "(population, density);\nthe matching component must dominate "
               "while the others stay near zero.\n\n";
  RunCase({"difference between the means (mu_I > mu_O)", 2.0, 1.0, false});
  RunCase({"difference between the std deviations (sigma_I > sigma_O)", 0.0, 2.5, false});
  RunCase({"difference between the correlation coefficients (r_I < r_O)", 0.0, 1.0,
           true});
  std::cout << "Paper shape: each indicator isolates one aspect of the "
               "difference and is individually verifiable.\n";
  return 0;
}
