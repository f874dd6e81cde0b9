// SelectionSketches: all mergeable statistics of one side of a selection
// (the "inside" of paper Figure 2).
//
// Rows reach the statistics through one set of block kernels:
//  * Columnar blocked scan (AccumulateColumns / Build): the selection
//    bitmap is decoded once per block of kDefaultBlockRows rows into a
//    row-index vector, then the columns (and tracked pairs) are scanned
//    over that vector with one type dispatch per column per block instead
//    of one per cell. Numeric columns run in tiles of 4 inside one row
//    loop: 4 independent (count, sum, sum_sq, rank sum) register chains,
//    4 value and 4 rank gathers and 4 histogram increments per row, with
//    each lane's cells a few selected rows ahead prefetched, so the
//    columns' dependency chains and cache misses overlap instead of
//    running back to back (the X100 idea of several independent
//    accumulators per vector; Boncz et al., CIDR 2005). Columns
//    referenced by tracked pairs are gathered on the way into a
//    per-thread workspace, one stripe per column, which the pair
//    passes then read densely. The workspace belongs to the scanning
//    thread, not to the sketch: it is reused by every later scan on that
//    thread, grows to the widest (stripes x block) seen and never shrinks,
//    so a steady-state scan neither allocates nor page-faults, and a
//    sketch holds statistics only. This is the hot path for full
//    preparation scans. Above the kCellsPerThread grain it runs on the
//    shared worker pool partitioned by column, not by row: per block, one
//    ParallelFor splits the unary work into column ranges and a second
//    splits the pair passes, so every accumulator is owned by one worker
//    and still sees its rows in ascending order. The result is therefore
//    bit-identical to the sequential scan at any thread count.
//    The pair pass is tiled too. A numeric pair whose two columns hold no
//    NULL in the table's current generation (the profile's column count
//    is the row count) adds every selected row, so its count and x/y
//    sums are bitwise its columns' sketches: the scan accumulates only
//    sum_xy, 4 such pairs per row loop, and copies the rest from the
//    column sketches after the last block. This is the identity the
//    profile's Gram tiles rely on, and every path through this class
//    keeps it (same rows, same order, same operations). Pairs with a
//    NULL-holding column keep the per-pair loop. Mixed pairs come from
//    the profile grouped by categorical column; each run of pairs sharing
//    one gets one stable counting sort of the block's rows by code, then
//    up to 4 pairs sum each group's rows in registers. The sort keeps
//    every group's rows ascending, so each group sketch still adds its
//    values in AddRow's order. A parallel scan cuts its tiles and runs
//    inside each partition's pair range.
//  * Signed block patch (ApplyDelta): the patch step of the one
//    sketch-reuse routine (ProvideSketches, over a stand-alone engine's
//    private cache or the server's shared one), where overlapping
//    selections differ in few rows. It decodes `from XOR to`
//    block by block into the same workspace, each row with a sign (+1 if
//    `to` selects it, -1 if not), and runs the added and removed rows
//    together, ascending, through the scan's kernels in their signed
//    form: counts and cells move by the sign, floating sums add the
//    signed value. Negation is exact and a + (-b) is a - b in IEEE-754,
//    so the result is bitwise that of AddRow/RemoveRow over the same rows
//    in the same order.
//  * Row-at-a-time AddRow/RemoveRow: the documented bitwise reference of
//    both block paths in the tests; no production path calls them.
//
// Besides moments and counts, a sketch holds each numeric column's rank
// sum: the exact integer sum of the profile's doubled midranks
// (TableProfile::Rank2) over the accumulated rows, read beside each value
// in the same pass. The rank-shift component (Mann-Whitney U) follows from
// it and the non-NULL counts, so no read sweeps the rows a second time.
// Midranks of old rows move when rows are appended, so a sketch is valid
// for one table generation only.
//
// Every field supports exact subtraction, which enables two optimizations:
//  * the outside side is derived as (global profile − inside) without a
//    second scan (DeriveAsComplement), and
//  * a cached inside state can be *updated* to a similar new selection by
//    adding/removing only the rows in the symmetric difference
//    (ApplyDelta), when MaxPatchDelta says that beats a scan.
//
// Layout: each variable-length family lives in one flat buffer with an
// offset table (per-column category counts and histograms, per-pair
// mixed groups, per-pair contingency cells), so shaping, copying or
// freeing a sketch costs a constant number of allocations whatever the
// table width, and the accessors return spans into those buffers.

#ifndef ZIGGY_ZIG_SELECTION_SKETCHES_H_
#define ZIGGY_ZIG_SELECTION_SKETCHES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "stats/descriptive.h"
#include "storage/selection.h"
#include "storage/table.h"
#include "zig/profile.h"

namespace ziggy {

/// \brief Per-side accumulation state for component construction.
class SelectionSketches {
 public:
  /// Default rows per accumulation block (16 KiB of row indices; one
  /// gathered stripe is 32 KiB).
  static constexpr size_t kDefaultBlockRows = 4096;

  SelectionSketches() = default;

  /// Allocates zeroed sketches shaped after (table, profile).
  void InitShapes(const Table& table, const TableProfile& profile);

  /// \name Columnar blocked path (full scans).
  /// @{

  /// Accumulates every selected row, column-at-a-time in blocks of
  /// `block_rows` (0 = kDefaultBlockRows). Single-threaded and
  /// bit-identical to calling AddRow for each selected row in ascending
  /// order: each accumulator sees values in exactly that order, and a
  /// NULL-free numeric pair's count and x/y sums are copied from its
  /// columns' sketches, which saw the same values in the same order.
  void AccumulateColumns(const Table& table, const TableProfile& profile,
                         const Selection& selection, size_t block_rows = 0);

  /// One-call construction: InitShapes + accumulation of `selection`,
  /// partitioned by column across `num_threads` workers of the shared pool
  /// (0 = ThreadsForCells over the selected rows x columns). The result is
  /// bit-identical to AccumulateColumns for every thread count.
  static SelectionSketches Build(const Table& table, const TableProfile& profile,
                                 const Selection& selection, size_t num_threads = 1,
                                 size_t block_rows = 0);
  /// @}

  /// \name Incremental deltas.
  /// @{

  /// Turns sketches accumulated over `from` into sketches of `to` (same
  /// row count): adds the rows only `to` selects and removes the rows only
  /// `from` selects, through the scan's block kernels in their signed
  /// form, on the calling thread. Bitwise equal to AddRow/RemoveRow over
  /// the rows of `from XOR to` in ascending order. Integer statistics end
  /// up exactly as a scan of `to` leaves them; floating sums differ from
  /// it in summation order only.
  void ApplyDelta(const Table& table, const TableProfile& profile,
                  const Selection& from, const Selection& to);

  /// The patch-or-scan rule of ProvideSketches: sketches of a
  /// selection of `selected_rows` rows are patched from a base at most
  /// this many rows away (ApplyDelta), and scanned otherwise. Measured on
  /// one core (bench_components_micro BM_ApplyDeltaWide against a
  /// one-thread Build of its 15% base selection): copying and patching
  /// 40 / 400 delta rows costs 79 / 504 us on crime (1994 x 128,
  /// |S| = 313) and 464 / 2101 us on oecd (6823 x 519, |S| = 1025),
  /// where the scan costs 420 us and 3.7 ms. A patch at the bound thus
  /// costs about 0.5 (crime) and 0.7 (oecd) of a scan, and breaks even
  /// near |S| and 0.75 |S|. The bound stays at |S| / 2: moving it changes
  /// which reads are patched, and a patched sketch's floating sums differ
  /// from a scan's in summation order.
  static constexpr size_t MaxPatchDelta(size_t selected_rows) {
    return selected_rows / 2;
  }
  /// @}

  /// Rebuilds this state as (profile global − other). A column's rank sum
  /// becomes n(n + 1) − other's, n its non-NULL count: the doubled midranks
  /// of n values always sum to n(n + 1).
  void DeriveAsComplement(const TableProfile& profile, const SelectionSketches& other);

  /// \name Row-at-a-time reference (tests only).
  /// @{

  /// Accumulates row `r` of the table.
  void AddRow(const Table& table, const TableProfile& profile, size_t r);

  /// Removes a previously accumulated row (exact inverse of AddRow).
  void RemoveRow(const Table& table, const TableProfile& profile, size_t r);
  /// @}

  /// \name Accumulated statistics (indexing mirrors TableProfile).
  /// @{
  const MomentSketch& column_sketch(size_t col) const { return column_sketches_[col]; }
  /// Sum of the profile's doubled midranks Rank2(col) over the accumulated
  /// rows (NULL rows add 0); 0 for categorical columns. Exact.
  int64_t rank_sum(size_t col) const { return rank_sums_[col]; }
  /// Category counts of categorical column `col` (empty for numeric ones).
  std::span<const int64_t> category_counts(size_t col) const {
    return binners_[col].bins > 0 ? std::span<const int64_t>() : CellsOf(col);
  }
  const PairMomentSketch& numeric_pair_sketch(size_t idx) const {
    return numeric_pair_sketches_[idx];
  }
  std::span<const MomentSketch> mixed_pair_groups(size_t idx) const {
    return {groups_.data() + group_offsets_[idx],
            group_offsets_[idx + 1] - group_offsets_[idx]};
  }
  std::span<const int64_t> categorical_pair_table(size_t idx) const {
    return {table_cells_.data() + table_offsets_[idx],
            table_offsets_[idx + 1] - table_offsets_[idx]};
  }
  /// Histogram counts of numeric column `col` (profile-aligned bins; empty
  /// for categorical and histogram-less columns).
  std::span<const int64_t> histogram(size_t col) const {
    return binners_[col].bins > 0 ? CellsOf(col) : std::span<const int64_t>();
  }
  /// @}

  /// Heap footprint: the capacity of every buffer the sketch owns (used to
  /// budget the sketch cache).
  size_t MemoryUsageBytes() const;

  /// Exact equality of every accumulated statistic (the bitwise
  /// reference of the scan-equivalence tests).
  bool Equals(const SelectionSketches& other) const;

 private:
  struct GatherBuffers;

  template <int Sign>
  void ApplyRow(const Table& table, const TableProfile& profile, size_t r);

  /// Column `col`'s cells: its histogram when its binner has bins, else
  /// its category counts (none for a histogram-less numeric column).
  std::span<const int64_t> CellsOf(size_t col) const {
    return {cells_.data() + cell_offsets_[col],
            cell_offsets_[col + 1] - cell_offsets_[col]};
  }

  /// Unary statistics of columns [cols.begin, cols.end) over one decoded
  /// block of `n` rows, each added (or, kSigned, added with its sign in
  /// `buf.signs`). Pair-referenced columns are gathered into their stripes
  /// of `buf` (laid out by gather_slot_); the others into `num_sink` /
  /// `code_sink`.
  template <bool kSigned>
  void AccumulateUnary(const Table& table, const TableProfile& profile,
                       const uint32_t* rows, size_t n, TaskRange cols,
                       const GatherBuffers& buf, double* num_sink,
                       CategoryCode* code_sink);

  /// Tracked pairs [pairs.begin, pairs.end) over the gathered stripes of
  /// one block, indexed numeric pairs first, then mixed, then categorical.
  /// `part` picks the partition's counting-sort scratch in `buf`.
  template <bool kSigned>
  void AccumulatePairs(const Table& table, const TableProfile& profile,
                       size_t n, TaskRange pairs, const GatherBuffers& buf,
                       size_t part);

  /// Mixed pairs [begin, end), which share their categorical column.
  template <bool kSigned>
  void AccumulateMixedRun(size_t n, size_t begin, size_t end,
                          const TableProfile& profile,
                          const GatherBuffers& buf, size_t part);

  /// Copies the count and x/y sums of every NULL-free numeric pair from
  /// its columns' sketches (the scan accumulated only their sum_xy).
  void FinishNullFreePairs(const Table& table, const TableProfile& profile);

  /// The sequential block pass of a scan (kSigned false) and of a patch
  /// (kSigned true) over the `num_words` words `decode` reads, ending with
  /// FinishNullFreePairs.
  template <bool kSigned, typename Decode>
  void AccumulateBlocks(const Table& table, const TableProfile& profile,
                        size_t num_words, size_t block_rows, Decode&& decode);

  /// Build's column-partitioned scan on `threads` (> 1) workers.
  void AccumulateColumnsParallel(const Table& table,
                                 const TableProfile& profile,
                                 const Selection& selection,
                                 size_t block_rows, size_t threads);

  /// The one block loop of scans and patches. Sizes the calling thread's
  /// scan workspace for `partitions` workers (their sink stripes and
  /// counting-sort buffers), then walks `num_words` bitmap words in
  /// blocks of `block_rows` rows: n = decode(w, we, rows, signs) writes the
  /// ascending rows of words [w, we) (and, for a patch, their signs), and
  /// fn(rows, n, buf) runs for each non-empty block.
  template <typename Decode, typename Fn>
  void ForEachRowBlock(size_t num_words, size_t block_rows, size_t partitions,
                       Decode&& decode, Fn&& fn) const;

  std::vector<MomentSketch> column_sketches_;
  std::vector<int64_t> rank_sums_;
  // Per-column binners precomputed in InitShapes: the per-cell histogram
  // cost is one multiply instead of two divisions, on both scan paths. A
  // binner has bins exactly when its column has a histogram.
  std::vector<HistogramBinner> binners_;
  // Column c's cells (histogram or category counts) are
  // cells_[cell_offsets_[c], cell_offsets_[c + 1]).
  std::vector<size_t> cell_offsets_;
  std::vector<int64_t> cells_;
  std::vector<PairMomentSketch> numeric_pair_sketches_;
  // Mixed pair i's groups are groups_[group_offsets_[i], ..[i + 1]).
  std::vector<size_t> group_offsets_;
  std::vector<MomentSketch> groups_;
  // Categorical pair i's cells are table_cells_[table_offsets_[i], ..[i + 1]).
  std::vector<size_t> table_offsets_;
  std::vector<int64_t> table_cells_;
  // Gather layout of the columnar scan (computed in InitShapes): per
  // column, its stripe in the numeric or categorical workspace, and the
  // stripe count of each kind. Columns no tracked pair references are
  // gathered into a sink the scan writes but never reads: stripe 0 of their
  // kind, or one stripe per worker of a parallel scan. The stripes
  // themselves live in the scanning thread's workspace, not here.
  std::vector<uint32_t> gather_slot_;
  size_t numeric_stripes_ = 0;
  size_t code_stripes_ = 0;
};

}  // namespace ziggy

#endif  // ZIGGY_ZIG_SELECTION_SKETCHES_H_
