// TableProfile: the per-table statistics Ziggy computes once and shares
// across all exploration queries (the "strategy to share computations
// between queries" of paper §3, Preparation).
//
// The profile holds:
//  * global moment sketches per numeric column,
//  * global category counts per categorical column,
//  * global cross-moment sketches for tracked column pairs,
//  * the column dependency matrix (the measure S of Eq. 2).
//
// Because every sketch supports exact Subtract, a query's outside statistics
// are derived as (global − inside) after a single scan of the selection —
// the complement of the selection is never scanned.
//
// Numeric pair sketches are filled in two ways, with bitwise the same
// result as adding each row to the pair with PairMomentSketch::Add. When
// neither column has a NULL, the pair's count and x/y sums are the two
// columns' own sketches (same rows, same order, same operations), so
// they are copied, and only sum_xy is computed: 4x4 register tiles over
// the NULL-free columns, each accumulator summing x[r] * y[r] in row
// order. A pair with a NULL-holding column keeps the per-row Add loop.

#ifndef ZIGGY_ZIG_PROFILE_H_
#define ZIGGY_ZIG_PROFILE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "stats/descriptive.h"
#include "storage/table.h"
#include "zig/component.h"

namespace ziggy {

/// \brief Options controlling profile construction.
struct ProfileOptions {
  /// Pairs with global dependency below this floor are not tracked: their
  /// pair-level Zig-Components would never appear inside a tight view.
  double pair_dependency_floor = 0.05;
  /// Hard cap on tracked pairs (safety valve for very wide tables). Pairs
  /// with the highest dependency are kept.
  size_t max_tracked_pairs = 250000;
  /// Bins of the per-column global histograms backing the
  /// distribution-shift component (0 disables).
  size_t histogram_bins = 16;
  /// Threads for profile construction (1 = sequential; 0 = one per
  /// kCellsPerThread table cells, at most one per core, on the shared
  /// worker pool). Execution knob only: the resulting profile is
  /// independent of it, and it is not serialized.
  size_t num_threads = 0;
};

/// \brief Precomputed equi-width binning over [lo, hi]: the reciprocal bin
/// width is paid once, so the per-cell cost is one multiply instead of two
/// divisions. Every histogram in the system (global profile, selection
/// sketches, incremental deltas) must bin through this one formula —
/// complement derivation subtracts counts bin-by-bin and would corrupt on
/// any rounding disagreement.
struct HistogramBinner {
  double lo = 0.0;
  double inv_width = 0.0;  ///< 0 when the range or bin count is degenerate
  size_t bins = 0;

  static HistogramBinner Make(double lo, double hi, size_t bins) {
    HistogramBinner b;
    b.lo = lo;
    b.bins = bins;
    if (bins > 0) {
      const double width = (hi - lo) / static_cast<double>(bins);
      if (width > 0.0) b.inv_width = 1.0 / width;
    }
    return b;
  }

  /// Bin of `v`, with out-of-range values clamped into the boundary bins.
  size_t BinOf(double v) const {
    if (inv_width <= 0.0) return 0;
    const double offset = (v - lo) * inv_width;
    if (offset < 0.0) return 0;
    const size_t bin = static_cast<size_t>(offset);
    return bin >= bins ? bins - 1 : bin;
  }
};

/// \brief Bin index of `v` in an equi-width histogram over [lo, hi] with
/// out-of-range values clamped into the boundary bins. One-off convenience
/// wrapper over HistogramBinner; hot loops should hoist the binner.
size_t HistogramBinOf(double v, double lo, double hi, size_t bins);

/// \brief Global per-group numeric summaries for one (categorical, numeric)
/// column pair; index = category code.
struct GroupedMoments {
  std::vector<MomentSketch> groups;
};

/// \brief What an incremental append did to the profile.
struct ProfileAppendEffects {
  size_t rows_appended = 0;
  /// Some numeric column's [min, max] grew: its histogram was re-binned
  /// (full column rescan for that column only).
  bool ranges_extended = false;
  /// Some categorical column gained dictionary entries: per-column count
  /// vectors and contingency tables changed shape.
  bool categories_added = false;
  /// Columns whose histograms were rebuilt from a full column scan.
  std::vector<size_t> rebinned_columns;
};

namespace internal {
/// Doubled midranks of `data`, as TableProfile::Rank2 caches them.
std::vector<uint32_t> DoubledMidranks(const std::vector<double>& data);
}  // namespace internal

/// \brief Shared per-table statistics. Compute once, reuse per query.
class TableProfile {
 public:
  /// Builds the profile with full scans of the table.
  static Result<TableProfile> Compute(const Table& table, ProfileOptions options = {});

  /// Updates this profile in place for rows [old_num_rows,
  /// new_table.num_rows()) of `new_table` (the post-append generation whose
  /// prefix is the table this profile was computed from). Everything the
  /// delta machinery can reach is updated *exactly* and bit-identically to
  /// a fresh Compute over the grown table: column/pair moment sketches
  /// (appended values extend the same ascending-row summation chains),
  /// category counts, histograms (rebuilt per column when its range grew),
  /// cached midranks (old rows shift by the batch values below and equal
  /// to theirs; O(N log b) for a batch of b rows), and the
  /// dependency entries + statistics of every *tracked* pair. Two things
  /// are frozen at build time, by design: the tracked-pair membership and
  /// the dependency entries of untracked pairs (refreshing those would
  /// need the full rescan this path exists to avoid; re-Compute to
  /// refresh them).
  Result<ProfileAppendEffects> ApplyAppend(const Table& new_table,
                                           size_t old_num_rows);

  size_t num_columns() const { return num_columns_; }
  /// Rows of the profiled table; kUnknownRows for a profile read from a
  /// format-3 stream (which did not record it) of a table without numeric
  /// columns.
  size_t num_rows() const { return num_rows_; }
  static constexpr size_t kUnknownRows = static_cast<size_t>(-1);
  const ProfileOptions& options() const { return options_; }

  /// Global moment sketch of numeric column `col` (zeroed for categorical).
  const MomentSketch& ColumnSketch(size_t col) const { return column_sketches_[col]; }

  /// Global category counts of categorical column `col` (empty otherwise).
  const std::vector<int64_t>& CategoryCountsOf(size_t col) const {
    return category_counts_[col];
  }

  /// Global [min, max] of numeric column `col`.
  std::pair<double, double> ColumnRange(size_t col) const { return ranges_[col]; }

  /// Doubled midranks of numeric column `col`, one per row: 2L + E + 1,
  /// where L counts the column's non-NULL values below the row's value and
  /// E the values equal to it (the row included); 0 for a NULL row. Twice
  /// the row's 1-based tie-averaged rank, so rank sums stay integral; the
  /// values of n non-NULL rows sum to n(n + 1). The selection scan sums
  /// them beside each value (SelectionSketches::rank_sum). Every numeric
  /// column has one (4 bytes/cell); empty for a categorical `col`.
  const std::vector<uint32_t>& Rank2(size_t col) const { return rank2_[col]; }

  /// Global equi-width histogram counts of numeric column `col` over
  /// ColumnRange(col); empty when histogram_bins == 0 or categorical.
  const std::vector<int64_t>& HistogramCountsOf(size_t col) const {
    return histograms_[col];
  }

  /// OK when this profile describes `table`'s shape: the same column count
  /// and row count, a rank array spanning exactly the table's rows for
  /// every numeric column (the selection scan indexes them by row id), and
  /// one category count per label of every categorical column (complement
  /// derivation indexes them by category code). The row count itself is
  /// not compared when it is kUnknownRows.
  Status CheckShape(const Table& table) const;

  /// Dependency S(col_a, col_b) in [0, 1] (Eq. 2 measure).
  double Dependency(size_t a, size_t b) const;

  /// \name Tracked pair access.
  /// @{
  const std::vector<std::pair<size_t, size_t>>& tracked_numeric_pairs() const {
    return tracked_numeric_pairs_;
  }
  const std::vector<std::pair<size_t, size_t>>& tracked_mixed_pairs() const {
    return tracked_mixed_pairs_;
  }
  const std::vector<std::pair<size_t, size_t>>& tracked_categorical_pairs() const {
    return tracked_categorical_pairs_;
  }
  /// Index into pair sketch storage, or -1 when the pair is not tracked.
  /// For numeric pairs, both orders are accepted.
  int64_t NumericPairIndex(size_t a, size_t b) const;
  const PairMomentSketch& NumericPairSketch(size_t idx) const {
    return numeric_pair_sketches_[static_cast<size_t>(idx)];
  }
  /// Grouped moments of tracked mixed pair `idx` (categorical first).
  const GroupedMoments& MixedPairGroups(size_t idx) const {
    return mixed_pair_groups_[idx];
  }
  /// Global contingency table of tracked categorical pair `idx`, row-major
  /// with b's cardinality as row stride.
  const std::vector<int64_t>& CategoricalPairTable(size_t idx) const {
    return categorical_pair_tables_[idx];
  }
  /// @}

  /// Approximate heap footprint of the profile.
  size_t MemoryUsageBytes() const;

  /// \name Serialization.
  /// Profiles are expensive to compute on wide tables (the one-off cost of
  /// an exploration session); persisting them lets a session resume
  /// instantly. The format is a version-tagged little-endian binary dump.
  /// @{
  Status Serialize(std::ostream* out) const;
  static Result<TableProfile> Deserialize(std::istream* in);
  Status SaveToFile(const std::string& path) const;
  static Result<TableProfile> LoadFromFile(const std::string& path);
  /// Structural and numerical equality (used to validate round trips).
  bool Equals(const TableProfile& other) const;
  /// @}

 private:
  friend class TableProfileTestPeer;  // swaps in reference rank arrays

  size_t num_columns_ = 0;
  size_t num_rows_ = 0;
  ProfileOptions options_;
  std::vector<MomentSketch> column_sketches_;
  std::vector<std::vector<int64_t>> category_counts_;
  std::vector<std::pair<double, double>> ranges_;
  std::vector<std::vector<uint32_t>> rank2_;
  std::vector<std::vector<int64_t>> histograms_;
  std::vector<double> dependency_;  // dense num_columns^2, symmetric

  std::vector<std::pair<size_t, size_t>> tracked_numeric_pairs_;
  std::vector<PairMomentSketch> numeric_pair_sketches_;
  std::vector<int64_t> numeric_pair_index_;  // dense num_columns^2, -1 = untracked

  std::vector<std::pair<size_t, size_t>> tracked_mixed_pairs_;  // (cat, num)
  std::vector<GroupedMoments> mixed_pair_groups_;

  std::vector<std::pair<size_t, size_t>> tracked_categorical_pairs_;
  std::vector<std::vector<int64_t>> categorical_pair_tables_;
};

}  // namespace ziggy

#endif  // ZIGGY_ZIG_PROFILE_H_
