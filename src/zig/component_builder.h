// Component builder: Ziggy's Preparation stage (paper §3).
//
// Given a table, its shared TableProfile, and a query Selection, computes
// every Zig-Component (per column and per tracked pair). Three execution
// strategies exist:
//
//  * kSharedSketch (default, the full paper's optimization): one scan over
//    the *selected* rows builds the inside sketches; outside statistics are
//    derived by subtracting from the profile's global sketches. Cost is
//    O(|selection| * M) regardless of table size. The rank-shift component
//    needs no pass of its own: the scan sums each numeric column's cached
//    midranks (TableProfile::Rank2) beside its values, and Mann-Whitney U
//    follows from that exact sum and the two non-NULL counts.
//  * kTwoScan (baseline): both sides are scanned explicitly. Cost is
//    O(N * M). Exists to quantify the sharing benefit (bench A1) and as a
//    numerical cross-check in tests.
//  * incremental (via Preparer): when consecutive exploration queries
//    overlap, the cached inside sketches of the previous query are patched
//    by adding/removing only the rows in the symmetric difference, through
//    the scan's block kernels (SelectionSketches::ApplyDelta). Cost is
//    O(|S_prev XOR S_new| * M).
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
#include <optional>

#include "common/result.h"
#include "storage/selection.h"
#include "storage/table.h"
#include "zig/component_table.h"
#include "zig/profile.h"
#include "zig/selection_sketches.h"

namespace ziggy {

/// \brief How outside-of-selection statistics are obtained.
enum class PreparationMode {
  kSharedSketch,  ///< outside = global − inside (one scan)
  kTwoScan,       ///< outside scanned explicitly (two scans)
};

/// \brief Options for component construction.
struct ComponentBuildOptions {
  PreparationMode mode = PreparationMode::kSharedSketch;
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
/// complement*, paper Figure 2). Shared by BuildComponents, the Preparer,
/// and the serving layer's cached-sketch path.
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
/// profile. Exposed for the Preparer and for tests.
Result<ComponentTable> BuildComponentsFromSketches(
    const Table& table, const TableProfile& profile, const Selection& selection,
    const SelectionSketches& inside, const SelectionSketches& outside,
    const ComponentBuildOptions& options);

/// \brief Stateful preparation helper that exploits the overlap between
/// consecutive exploration queries (users refine predicates; row sets
/// change little). Per query it patches the previous query's sketches
/// (delta update, O(|S_prev XOR S| * M)) when the delta is within
/// SelectionSketches::MaxPatchDelta (|S| / 2), the rule the serving
/// layer's sketch cache also applies, and runs a full scan (O(|S| * M))
/// otherwise.
class Preparer {
 public:
  enum class Strategy { kFullScan, kIncremental, kTwoScan };

  /// `table` and `profile` must outlive the Preparer.
  Preparer(const Table* table, const TableProfile* profile,
           ComponentBuildOptions options);

  /// Builds the component table for `selection`, reusing cached state when
  /// profitable.
  Result<ComponentTable> Prepare(const Selection& selection);

  /// Strategy used by the most recent Prepare call.
  Strategy last_strategy() const { return last_strategy_; }
  /// Rows added+removed by the most recent incremental update (0 for full).
  size_t last_delta_rows() const { return last_delta_rows_; }

  /// Drops the cached state (e.g. after the table changed).
  void Reset();

 private:
  const Table* table_;
  const TableProfile* profile_;
  ComponentBuildOptions options_;
  std::optional<Selection> last_selection_;
  SelectionSketches last_inside_;
  Strategy last_strategy_ = Strategy::kFullScan;
  size_t last_delta_rows_ = 0;
};

}  // namespace ziggy

#endif  // ZIGGY_ZIG_COMPONENT_BUILDER_H_
