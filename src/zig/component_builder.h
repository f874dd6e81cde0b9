// Component builder: Ziggy's Preparation stage (paper §3).
//
// Given a table, its shared TableProfile, and a query Selection, computes
// every Zig-Component (per column and per tracked pair). One scan over the
// *selected* rows builds the inside sketches; outside statistics are
// derived by subtracting them from the profile's global sketches (the full
// paper's shared-computation optimization). Cost is O(|selection| * M)
// regardless of table size. The rank-shift component needs no pass of its
// own: the scan sums each numeric column's cached midranks
// (TableProfile::Rank2) beside its values, and Mann-Whitney U follows from
// that exact sum and the two non-NULL counts.
//
// Across consecutive exploration queries the engine does not rescan: its
// one Preparation routine (ProvideSketches, engine/sketch_cache.h) reuses
// cached inside sketches, patching an overlapping selection's through the
// scan's block kernels (SelectionSketches::ApplyDelta) at O(|S_prev XOR S|
// * M), and hands them to BuildComponentsFromSketches.
//
// Assembly (BuildComponentsFromSketches) allocates a constant number of
// blocks per read, whatever the table width: it reads the sketches
// through spans, reserves the ComponentTable for its upper bound, takes
// the distribution- and frequency-shift values (TV distance, top bin, top
// category) straight from the two count spans, and shares one margin
// scratch across the contingency tables.

#ifndef ZIGGY_ZIG_COMPONENT_BUILDER_H_
#define ZIGGY_ZIG_COMPONENT_BUILDER_H_

#include <cstdint>

#include "common/result.h"
#include "storage/selection.h"
#include "storage/table.h"
#include "zig/component_table.h"
#include "zig/profile.h"
#include "zig/selection_sketches.h"

namespace ziggy {

/// \brief Options for component construction.
struct ComponentBuildOptions {
  /// Components are skipped when either side has fewer rows than this
  /// (effect sizes on tiny samples are pure noise).
  int64_t min_side_rows = 3;
  /// Threads for the full-scan columnar accumulation (1 = sequential;
  /// 0 = ThreadsForCells, one per kCellsPerThread cells scanned, at most
  /// one per core). Execution knob only: the scan splits by column, so
  /// results are identical for any value. Component assembly and the
  /// incremental delta path are always sequential: assembly reads only the
  /// sketches, and deltas are tiny by construction.
  size_t num_threads = 0;

  bool operator==(const ComponentBuildOptions&) const = default;
};

/// \brief Mann-Whitney U of the inside against the outside over one column's
/// non-NULL values: pairs where the inside value is greater, ties counted
/// 1/2.
struct MannWhitneyCounts {
  double u = 0.0;
  int64_t n_in = 0;
  int64_t n_out = 0;
};

/// \brief U from the inside's doubled rank sum (SelectionSketches::rank_sum)
/// over its n_in non-NULL rows: 2U = rank2_sum - n_in(n_in + 1), exact in
/// integers.
MannWhitneyCounts MannWhitneyFromRankSum(int64_t rank2_sum, int64_t n_in,
                                         int64_t n_out);

/// \brief Validates a (table, profile, selection) triple for
/// characterization: matching shapes, and a selection that is neither
/// empty nor the whole table (Ziggy characterizes a selection *against its
/// complement*, paper Figure 2). Shared by BuildComponents and the engine's
/// cached-sketch path.
Status ValidateCharacterizationInput(const Table& table, const TableProfile& profile,
                                     const Selection& selection);

/// \brief Builds the ComponentTable for one query.
///
/// Fails when the selection is empty or covers the whole table: Ziggy
/// characterizes a selection *against its complement*, so both sides must be
/// non-empty (paper Figure 2).
Result<ComponentTable> BuildComponents(const Table& table, const TableProfile& profile,
                                       const Selection& selection,
                                       const ComponentBuildOptions& options = {});

/// \brief Core assembly: derives/accepts both sides and emits components.
/// `selection` supplies only the inside row count and the input
/// validation; every statistic comes from the two sketches and the
/// profile. Exposed for the engine, which supplies cached or patched
/// inside sketches, and for tests.
Result<ComponentTable> BuildComponentsFromSketches(
    const Table& table, const TableProfile& profile, const Selection& selection,
    const SelectionSketches& inside, const SelectionSketches& outside,
    const ComponentBuildOptions& options);

}  // namespace ziggy

#endif  // ZIGGY_ZIG_COMPONENT_BUILDER_H_
