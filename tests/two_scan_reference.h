// Two-scan reference for the component tests: both sides are scanned
// explicitly (the outside over the complement of the selection) instead of
// deriving the outside as (global profile − inside). Tests compare the
// engine's one-scan and patched preparations against it, and the ablation
// and micro benchmarks use it as their two-scan baseline (CMakeLists.txt
// puts tests/ on the bench targets' include path).

#ifndef ZIGGY_TESTS_TWO_SCAN_REFERENCE_H_
#define ZIGGY_TESTS_TWO_SCAN_REFERENCE_H_

#include "common/result.h"
#include "storage/selection.h"
#include "storage/table.h"
#include "zig/component_builder.h"
#include "zig/component_table.h"
#include "zig/profile.h"
#include "zig/selection_sketches.h"

namespace ziggy {

inline Result<ComponentTable> BuildComponentsTwoScan(
    const Table& table, const TableProfile& profile, const Selection& selection,
    const ComponentBuildOptions& options = {}) {
  ZIGGY_RETURN_NOT_OK(ValidateCharacterizationInput(table, profile, selection));
  const SelectionSketches inside =
      SelectionSketches::Build(table, profile, selection, options.num_threads);
  const SelectionSketches outside = SelectionSketches::Build(
      table, profile, selection.Invert(), options.num_threads);
  return BuildComponentsFromSketches(table, profile, selection, inside, outside,
                                     options);
}

}  // namespace ziggy

#endif  // ZIGGY_TESTS_TWO_SCAN_REFERENCE_H_
