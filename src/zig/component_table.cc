#include "zig/component_table.h"

#include <algorithm>
#include <cmath>

namespace ziggy {

void ComponentTable::Add(ZigComponent component) {
  components_.push_back(std::move(component));
}

void ComponentTable::FinalizeScales() {
  scales_.fill(0.0);
  for (const auto& c : components_) {
    const double mag = c.Magnitude();
    if (!std::isfinite(mag) || mag >= kDegenerateMagnitude) continue;
    double& s = scales_[static_cast<size_t>(c.kind)];
    s = std::max(s, mag);
  }
}

std::vector<const ZigComponent*> ComponentTable::ForColumn(size_t col) const {
  std::vector<const ZigComponent*> out;
  for (const auto& c : components_) {
    if (c.col_a == col || c.col_b == col) out.push_back(&c);
  }
  return out;
}

const ZigComponent* ComponentTable::Find(ComponentKind kind, size_t col_a,
                                         size_t col_b) const {
  for (const ZigComponent& c : components_) {
    if (c.kind != kind) continue;
    if ((c.col_a == col_a && c.col_b == col_b) ||
        (col_b != kNoColumn && c.col_a == col_b && c.col_b == col_a)) {
      return &c;
    }
  }
  return nullptr;
}

double ComponentTable::NormalizationScale(ComponentKind kind) const {
  return std::max(scales_[static_cast<size_t>(kind)], kMinScale);
}

double ComponentTable::NormalizedMagnitude(const ZigComponent& c) const {
  const double mag = c.Magnitude();
  if (mag <= 0.0) return 0.0;
  return std::clamp(mag / NormalizationScale(c.kind), 0.0, 1.0);
}

}  // namespace ziggy
