// ComponentTable: "a table which describes the Zig-Components associated to
// each variable and each pair of variables" (paper §3, Preparation output).

#ifndef ZIGGY_ZIG_COMPONENT_TABLE_H_
#define ZIGGY_ZIG_COMPONENT_TABLE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "zig/component.h"

namespace ziggy {

/// \brief All Zig-Components of one (table, selection) pair, with the
/// per-kind normalization scales that make components comparable.
class ComponentTable {
 public:
  ComponentTable() = default;

  /// Appends a component (builder use). The table keeps no index: the
  /// read path walks components() in order.
  void Add(ZigComponent component);

  /// Reserves room for `n` components, so the Adds that follow do not
  /// reallocate (the builder knows an upper bound up front).
  void Reserve(size_t n) { components_.reserve(n); }

  /// Recomputes per-kind normalization scales; call once after all Adds.
  void FinalizeScales();

  const std::vector<ZigComponent>& components() const { return components_; }

  /// All components whose first (or second) column is `col`.
  std::vector<const ZigComponent*> ForColumn(size_t col) const;

  /// Looks up a specific component; nullptr if absent. Pair kinds accept
  /// either column order. A linear scan over the components, meant for
  /// tests and diagnostics: no read path looks components up one by one.
  const ZigComponent* Find(ComponentKind kind, size_t col_a,
                           size_t col_b = kNoColumn) const;

  /// Normalization scale of a kind: the largest finite magnitude observed
  /// (>= kMinScale so division is safe). Dividing a component's magnitude
  /// by its kind scale yields a comparable [0, 1] value (paper §2.2:
  /// "the normalization enforces that the indicators have comparable
  /// scale").
  double NormalizationScale(ComponentKind kind) const;

  /// Magnitude of `c` normalized by its kind scale, clamped to [0, 1].
  double NormalizedMagnitude(const ZigComponent& c) const;

  int64_t inside_count() const { return inside_count_; }
  int64_t outside_count() const { return outside_count_; }
  void set_counts(int64_t inside, int64_t outside) {
    inside_count_ = inside;
    outside_count_ = outside;
  }

  size_t size() const { return components_.size(); }

 private:
  static constexpr double kMinScale = 1e-12;
  /// Degenerate zero-variance effects carry magnitude 1e6; exclude them from
  /// scale estimation so they saturate instead of flattening everything else.
  static constexpr double kDegenerateMagnitude = 1e5;

  std::vector<ZigComponent> components_;
  std::array<double, kNumComponentKinds> scales_{};
  int64_t inside_count_ = 0;
  int64_t outside_count_ = 0;
};

}  // namespace ziggy

#endif  // ZIGGY_ZIG_COMPONENT_TABLE_H_
