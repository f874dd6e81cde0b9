#include "zig/selection_sketches.h"

#include <algorithm>
#include <bit>
#include <type_traits>

#include "common/logging.h"
#include "common/parallel.h"
#include "storage/types.h"

namespace ziggy {

void SelectionSketches::InitShapes(const Table& table, const TableProfile& profile) {
  const size_t m = table.num_columns();
  column_sketches_.assign(m, MomentSketch{});
  rank_sums_.assign(m, 0);
  binners_.assign(m, HistogramBinner{});
  cell_offsets_.resize(m + 1);
  size_t cells = 0;
  for (size_t c = 0; c < m; ++c) {
    cell_offsets_[c] = cells;
    const Column& col = table.column(c);
    if (col.is_categorical()) {
      cells += col.cardinality();
    } else if (!profile.HistogramCountsOf(c).empty()) {
      const size_t bins = profile.HistogramCountsOf(c).size();
      cells += bins;
      const auto [lo, hi] = profile.ColumnRange(c);
      binners_[c] = HistogramBinner::Make(lo, hi, bins);
    }
  }
  cell_offsets_[m] = cells;
  cells_.assign(cells, 0);
  numeric_pair_sketches_.assign(profile.tracked_numeric_pairs().size(),
                                PairMomentSketch{});
  const size_t num_mixed = profile.tracked_mixed_pairs().size();
  group_offsets_.resize(num_mixed + 1);
  size_t groups = 0;
  for (size_t i = 0; i < num_mixed; ++i) {
    group_offsets_[i] = groups;
    groups += profile.MixedPairGroups(i).groups.size();
  }
  group_offsets_[num_mixed] = groups;
  groups_.assign(groups, MomentSketch{});
  const size_t num_tables = profile.tracked_categorical_pairs().size();
  table_offsets_.resize(num_tables + 1);
  size_t table_cells = 0;
  for (size_t i = 0; i < num_tables; ++i) {
    table_offsets_[i] = table_cells;
    table_cells += profile.CategoricalPairTable(i).size();
  }
  table_offsets_[num_tables] = table_cells;
  table_cells_.assign(table_cells, 0);
  // Gather layout: stripe 0 of each kind is the sink; pair-referenced
  // columns get stripes 1, 2, ... in column order.
  gather_slot_.assign(m, 0);
  const auto mark = [this](const auto& pairs) {
    for (const auto& [a, b] : pairs) gather_slot_[a] = gather_slot_[b] = 1;
  };
  mark(profile.tracked_numeric_pairs());
  mark(profile.tracked_mixed_pairs());
  mark(profile.tracked_categorical_pairs());
  numeric_stripes_ = 1;
  code_stripes_ = 1;
  for (size_t c = 0; c < m; ++c) {
    if (gather_slot_[c] == 0) continue;
    size_t& stripes =
        table.column(c).is_numeric() ? numeric_stripes_ : code_stripes_;
    gather_slot_[c] = static_cast<uint32_t>(stripes++);
  }
}

template <int Sign>
void SelectionSketches::ApplyRow(const Table& table, const TableProfile& profile,
                                 size_t r) {
  static_assert(Sign == 1 || Sign == -1);
  const size_t m = table.num_columns();
  for (size_t c = 0; c < m; ++c) {
    const Column& col = table.column(c);
    if (col.is_numeric()) {
      // A NULL row's rank is 0, so its add is a no-op.
      rank_sums_[c] += Sign * static_cast<int64_t>(profile.Rank2(c)[r]);
      const double v = col.numeric_data()[r];
      if (IsNullNumeric(v)) continue;
      if constexpr (Sign == 1) {
        column_sketches_[c].Add(v);
      } else {
        column_sketches_[c].Remove(v);
      }
      if (binners_[c].bins > 0) {
        cells_[cell_offsets_[c] + binners_[c].BinOf(v)] += Sign;
      }
    } else {
      const CategoryCode code = col.codes()[r];
      if (code != kNullCategory) {
        cells_[cell_offsets_[c] + static_cast<size_t>(code)] += Sign;
      }
    }
  }
  const auto& npairs = profile.tracked_numeric_pairs();
  for (size_t i = 0; i < npairs.size(); ++i) {
    const double x = table.column(npairs[i].first).numeric_data()[r];
    const double y = table.column(npairs[i].second).numeric_data()[r];
    if (IsNullNumeric(x) || IsNullNumeric(y)) continue;
    if constexpr (Sign == 1) {
      numeric_pair_sketches_[i].Add(x, y);
    } else {
      numeric_pair_sketches_[i].Remove(x, y);
    }
  }
  const auto& mpairs = profile.tracked_mixed_pairs();
  for (size_t i = 0; i < mpairs.size(); ++i) {
    const CategoryCode code = table.column(mpairs[i].first).codes()[r];
    const double x = table.column(mpairs[i].second).numeric_data()[r];
    if (code == kNullCategory || IsNullNumeric(x)) continue;
    MomentSketch& group =
        groups_[group_offsets_[i] + static_cast<size_t>(code)];
    if constexpr (Sign == 1) {
      group.Add(x);
    } else {
      group.Remove(x);
    }
  }
  const auto& cpairs = profile.tracked_categorical_pairs();
  for (size_t i = 0; i < cpairs.size(); ++i) {
    const CategoryCode ca = table.column(cpairs[i].first).codes()[r];
    const CategoryCode cb = table.column(cpairs[i].second).codes()[r];
    if (ca == kNullCategory || cb == kNullCategory) continue;
    const size_t kb = table.column(cpairs[i].second).cardinality();
    table_cells_[table_offsets_[i] + static_cast<size_t>(ca) * kb +
                 static_cast<size_t>(cb)] += Sign;
  }
}

void SelectionSketches::AddRow(const Table& table, const TableProfile& profile,
                               size_t r) {
  ApplyRow<1>(table, profile, r);
}

void SelectionSketches::RemoveRow(const Table& table, const TableProfile& profile,
                                  size_t r) {
  ApplyRow<-1>(table, profile, r);
}

// One block's gather stripes and counting-sort scratch, all in the
// calling thread's scan workspace. Stripes are `stride` values apart;
// partition p's sort scratch is order + p * stride and group_ends +
// p * group_stride. A patch also decodes each block position's sign into
// `signs`: +1.0 for a row it adds, -1.0 for a row it removes.
struct SelectionSketches::GatherBuffers {
  double* nums;
  CategoryCode* codes;
  size_t stride;
  uint32_t* order;
  uint32_t* group_ends;
  size_t group_stride;
  const double* signs;
};

namespace {

// The calling thread's scan workspace: one block of decoded row indices
// (and, for a patch, their signs), the numeric and categorical stripes,
// and the mixed runs' counting-sort buffers. Scans never nest on a thread,
// so one workspace per thread is enough; the daemon's dispatch threads are
// long-lived, so it is reused. A parallel scan's pool workers write into
// the caller's workspace, never their own.
struct ScanWorkspace {
  std::vector<uint32_t> rows;
  std::vector<double> signs;
  std::vector<double> nums;
  std::vector<CategoryCode> codes;
  std::vector<uint32_t> order;
  std::vector<uint32_t> group_ends;
};

ScanWorkspace& ThreadScanWorkspace() {
  thread_local ScanWorkspace workspace;
  return workspace;
}

// Grows `v` to at least `n` elements, never shrinking it.
template <typename T>
T* AtLeast(std::vector<T>* v, size_t n) {
  if (v->size() < n) v->resize(n);
  return v->data();
}

// One numeric column of a unary tile.
struct UnaryLane {
  const double* data;
  const uint32_t* rank2;  // the profile's doubled midranks of the column
  double* gather;         // the column's stripe, or the sink stripe
  int64_t* hist;          // histogram counts, or a one-cell sink
  HistogramBinner binner;
  MomentSketch* sketch;
  int64_t* rank_sum;
};

// Every kernel below comes in two forms. The unsigned form (kSigned =
// false) is the scan: each block position adds its row. The signed form is
// ApplyDelta's patch, where block position i adds its row with the sign
// sd = signs[i] (+1.0 or -1.0): counts, cells and rank sums move by
// si = ±1, and floating sums add sd * v, (sd * v) * v for squares and
// (sd * x) * y for cross products. Negation is exact and a + (-b) is
// a - b in IEEE-754, so a removed row leaves every statistic bitwise as
// RemoveRow leaves it. In the unsigned form the sign is the constant 1,
// which the compiler folds away.
template <bool kSigned>
double SignAt(const double* signs, size_t i) {
  if constexpr (kSigned) {
    return signs[i];
  } else {
    return 1.0;
  }
}

// Unary statistics of W numeric columns in one pass over the block. The
// W lanes' (count, sum, sum_sq, rank sum) chains and histogram increments
// are independent, so they overlap; each lane still adds its values in
// ascending row order, continuing the sketch's chains across blocks, so
// every sum is bit-identical to AddRow. The rank sum is an exact integer,
// and a NULL row's rank is 0, so it is added before the NULL test. A
// histogram-less lane counts into its sink cell (a default binner maps
// every value to bin 0). Selected rows ascend but are sparse at low
// densities, where the hardware prefetcher falls behind, so each row
// prefetches its lanes' values and ranks kPrefetchRows selected rows
// ahead.
constexpr size_t kPrefetchRows = 8;

template <int W, bool kSigned>
void AccumulateUnaryTile(const UnaryLane* lanes, const uint32_t* rows,
                         const double* signs, size_t n) {
  const double* data[W];
  const uint32_t* rank2[W];
  double* gather[W];
  int64_t* hist[W];
  HistogramBinner binner[W];
  int64_t count[W];
  double sum[W];
  double sum_sq[W];
  int64_t rank_sum[W];
  for (int j = 0; j < W; ++j) {
    data[j] = lanes[j].data;
    rank2[j] = lanes[j].rank2;
    gather[j] = lanes[j].gather;
    hist[j] = lanes[j].hist;
    binner[j] = lanes[j].binner;
    count[j] = lanes[j].sketch->count;
    sum[j] = lanes[j].sketch->sum;
    sum_sq[j] = lanes[j].sketch->sum_sq;
    rank_sum[j] = *lanes[j].rank_sum;
  }
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = rows[i];
    const uint32_t ahead = rows[std::min(i + kPrefetchRows, n - 1)];
    for (int j = 0; j < W; ++j) {
      __builtin_prefetch(data[j] + ahead);
      __builtin_prefetch(rank2[j] + ahead);
    }
    const double sd = SignAt<kSigned>(signs, i);
    const auto si = static_cast<int64_t>(sd);
    for (int j = 0; j < W; ++j) {
      const double v = data[j][r];
      gather[j][i] = v;
      rank_sum[j] += si * rank2[j][r];
      if (IsNullNumeric(v)) continue;
      const double sv = sd * v;
      count[j] += si;
      sum[j] += sv;
      sum_sq[j] += sv * v;
      hist[j][binner[j].BinOf(v)] += si;
    }
  }
  for (int j = 0; j < W; ++j) {
    lanes[j].sketch->count = count[j];
    lanes[j].sketch->sum = sum[j];
    lanes[j].sketch->sum_sq = sum_sq[j];
    *lanes[j].rank_sum = rank_sum[j];
  }
}

// Calls fn(std::integral_constant<int, W>{}) for the W = 1-3 lanes a
// 4-wide tile loop leaves.
template <typename Fn>
void RunTileRemainder(int width, Fn&& fn) {
  switch (width) {
    case 3:
      fn(std::integral_constant<int, 3>{});
      break;
    case 2:
      fn(std::integral_constant<int, 2>{});
      break;
    case 1:
      fn(std::integral_constant<int, 1>{});
      break;
    default:
      break;
  }
}

// One NULL-free numeric pair of a sum_xy tile: its gathered stripes.
struct CrossLane {
  const double* x;
  const double* y;
  double* sum_xy;
};

// sum_xy of W NULL-free numeric pairs in one pass over the block: W
// independent chains, each adding x * y in row order with the expression
// PairMomentSketch::Add uses, so each is bitwise that pair's per-row sum.
template <int W, bool kSigned>
void AccumulateCrossTile(const CrossLane* lanes, const double* signs,
                         size_t n) {
  const double* x[W];
  const double* y[W];
  double acc[W];
  for (int j = 0; j < W; ++j) {
    x[j] = lanes[j].x;
    y[j] = lanes[j].y;
    acc[j] = *lanes[j].sum_xy;
  }
  for (size_t i = 0; i < n; ++i) {
    const double sd = SignAt<kSigned>(signs, i);
    for (int j = 0; j < W; ++j) acc[j] += (sd * x[j][i]) * y[j][i];
  }
  for (int j = 0; j < W; ++j) *lanes[j].sum_xy = acc[j];
}

// One mixed pair of a group tile: its numeric stripe and group sketches.
struct GroupLane {
  const double* x;
  MomentSketch* groups;
};

// Grouped moments of W mixed pairs sharing one categorical column, over
// the block's non-NULL-code positions counting-sorted by code: `order`
// holds `sorted` positions, each group's ascending, and group g's run ends
// at ends[g]. Only groups present in the block are visited; each one's
// (count, sum, sum_sq) of the W pairs sit in registers while its rows are
// summed, in the order AddRow adds them.
template <int W, bool kSigned>
void AccumulateGroupTile(const GroupLane* lanes, const CategoryCode* codes,
                         const uint32_t* order, const uint32_t* ends,
                         uint32_t sorted, const double* signs) {
  for (uint32_t k = 0; k < sorted;) {
    const auto g = static_cast<size_t>(codes[order[k]]);
    int64_t count[W];
    double sum[W];
    double sum_sq[W];
    for (int j = 0; j < W; ++j) {
      const MomentSketch& s = lanes[j].groups[g];
      count[j] = s.count;
      sum[j] = s.sum;
      sum_sq[j] = s.sum_sq;
    }
    for (; k < ends[g]; ++k) {
      const uint32_t i = order[k];
      const double sd = SignAt<kSigned>(signs, i);
      const auto si = static_cast<int64_t>(sd);
      for (int j = 0; j < W; ++j) {
        const double v = lanes[j].x[i];
        if (IsNullNumeric(v)) continue;
        const double sv = sd * v;
        count[j] += si;
        sum[j] += sv;
        sum_sq[j] += sv * v;
      }
    }
    for (int j = 0; j < W; ++j) {
      MomentSketch& s = lanes[j].groups[g];
      s.count = count[j];
      s.sum = sum[j];
      s.sum_sq = sum_sq[j];
    }
  }
}

// Whether numeric column `c` holds no NULL in the table's current
// generation: its profile sketch counted every row.
bool IsNullFree(const Table& table, const TableProfile& profile, size_t c) {
  return static_cast<size_t>(profile.ColumnSketch(c).count) == table.num_rows();
}

}  // namespace

template <bool kSigned>
void SelectionSketches::AccumulateUnary(const Table& table,
                                        const TableProfile& profile,
                                        const uint32_t* rows, size_t n,
                                        TaskRange cols,
                                        const GatherBuffers& buf,
                                        double* num_sink,
                                        CategoryCode* code_sink) {
  // Numeric columns go through the kernel 4 at a time, in column order; the
  // last 1-3 run as a narrower tile. Pair-referenced columns are gathered
  // into their stripes on the way, so the pair passes read dense vectors
  // instead of re-gathering through the row indices (a column feeds
  // several pairs on correlated tables).
  UnaryLane tile[4];
  int64_t hist_sink[4] = {};
  int width = 0;
  for (size_t c = cols.begin; c < cols.end; ++c) {
    const Column& col = table.column(c);
    int64_t* cells = cells_.data() + cell_offsets_[c];
    if (col.is_numeric()) {
      UnaryLane& lane = tile[width];
      lane.data = col.numeric_data().data();
      lane.rank2 = profile.Rank2(c).data();
      lane.gather = gather_slot_[c] == 0
                        ? num_sink
                        : buf.nums + gather_slot_[c] * buf.stride;
      lane.hist = binners_[c].bins == 0 ? &hist_sink[width] : cells;
      lane.binner = binners_[c];
      lane.sketch = &column_sketches_[c];
      lane.rank_sum = &rank_sums_[c];
      if (++width == 4) {
        AccumulateUnaryTile<4, kSigned>(tile, rows, buf.signs, n);
        width = 0;
      }
      continue;
    }
    const CategoryCode* data = col.codes().data();
    CategoryCode* gather = gather_slot_[c] == 0
                               ? code_sink
                               : buf.codes + gather_slot_[c] * buf.stride;
    for (size_t i = 0; i < n; ++i) {
      const CategoryCode code = data[rows[i]];
      gather[i] = code;
      if (code != kNullCategory) {
        cells[static_cast<size_t>(code)] +=
            static_cast<int64_t>(SignAt<kSigned>(buf.signs, i));
      }
    }
  }
  RunTileRemainder(width, [&](auto w) {
    AccumulateUnaryTile<decltype(w)::value, kSigned>(tile, rows, buf.signs, n);
  });
}

template <bool kSigned>
void SelectionSketches::AccumulatePairs(const Table& table,
                                        const TableProfile& profile, size_t n,
                                        TaskRange pairs,
                                        const GatherBuffers& buf,
                                        size_t part) {
  const auto num_stripe = [&](size_t c) {
    return buf.nums + gather_slot_[c] * buf.stride;
  };
  const auto code_stripe = [&](size_t c) {
    return buf.codes + gather_slot_[c] * buf.stride;
  };
  const auto& npairs = profile.tracked_numeric_pairs();
  const auto& mpairs = profile.tracked_mixed_pairs();
  const auto& cpairs = profile.tracked_categorical_pairs();
  // The partition's slice of each family: [lo, hi) in family indices.
  const auto slice = [&pairs](size_t first, size_t size) {
    const size_t lo = std::clamp(pairs.begin, first, first + size) - first;
    const size_t hi = std::clamp(pairs.end, first, first + size) - first;
    return TaskRange{lo, hi};
  };

  // Numeric pairs: NULL-free ones through the sum_xy tiles, 4 at a time
  // (their other sums are copied after the scan); the rest one by one.
  const TaskRange num_range = slice(0, npairs.size());
  CrossLane tile[4];
  int width = 0;
  for (size_t t = num_range.begin; t < num_range.end; ++t) {
    const auto [a, b] = npairs[t];
    const double* x = num_stripe(a);
    const double* y = num_stripe(b);
    if (IsNullFree(table, profile, a) && IsNullFree(table, profile, b)) {
      tile[width] = {x, y, &numeric_pair_sketches_[t].sum_xy};
      if (++width == 4) {
        AccumulateCrossTile<4, kSigned>(tile, buf.signs, n);
        width = 0;
      }
      continue;
    }
    PairMomentSketch s = numeric_pair_sketches_[t];
    for (size_t i = 0; i < n; ++i) {
      if (IsNullNumeric(x[i]) || IsNullNumeric(y[i])) continue;
      if (SignAt<kSigned>(buf.signs, i) < 0) {
        s.Remove(x[i], y[i]);
      } else {
        s.Add(x[i], y[i]);
      }
    }
    numeric_pair_sketches_[t] = s;
  }
  RunTileRemainder(width, [&](auto w) {
    AccumulateCrossTile<decltype(w)::value, kSigned>(tile, buf.signs, n);
  });

  // Mixed pairs, one run per shared categorical column.
  const TaskRange mixed_range = slice(npairs.size(), mpairs.size());
  for (size_t p = mixed_range.begin; p < mixed_range.end;) {
    size_t run_end = p + 1;
    while (run_end < mixed_range.end &&
           mpairs[run_end].first == mpairs[p].first) {
      ++run_end;
    }
    AccumulateMixedRun<kSigned>(n, p, run_end, profile, buf, part);
    p = run_end;
  }

  // Categorical pair contingency tables.
  const TaskRange cat_range =
      slice(npairs.size() + mpairs.size(), cpairs.size());
  for (size_t q = cat_range.begin; q < cat_range.end; ++q) {
    const CategoryCode* a = code_stripe(cpairs[q].first);
    const CategoryCode* b = code_stripe(cpairs[q].second);
    const size_t kb = table.column(cpairs[q].second).cardinality();
    int64_t* cells = table_cells_.data() + table_offsets_[q];
    for (size_t i = 0; i < n; ++i) {
      const CategoryCode ca = a[i];
      const CategoryCode cb = b[i];
      if (ca != kNullCategory && cb != kNullCategory) {
        cells[static_cast<size_t>(ca) * kb + static_cast<size_t>(cb)] +=
            static_cast<int64_t>(SignAt<kSigned>(buf.signs, i));
      }
    }
  }
}

template <bool kSigned>
void SelectionSketches::AccumulateMixedRun(size_t n, size_t begin, size_t end,
                                           const TableProfile& profile,
                                           const GatherBuffers& buf,
                                           size_t part) {
  const auto& mpairs = profile.tracked_mixed_pairs();
  const CategoryCode* codes =
      buf.codes + gather_slot_[mpairs[begin].first] * buf.stride;
  const size_t num_groups = group_offsets_[begin + 1] - group_offsets_[begin];
  // Stable counting sort of the block positions by code, NULL codes
  // dropped: ends[g] ends up one past group g's last position in `order`.
  uint32_t* order = buf.order + part * buf.stride;
  uint32_t* ends = buf.group_ends + part * buf.group_stride;
  std::fill(ends, ends + num_groups, 0);
  for (size_t i = 0; i < n; ++i) {
    if (codes[i] != kNullCategory) ++ends[static_cast<size_t>(codes[i])];
  }
  uint32_t sorted = 0;
  for (size_t g = 0; g < num_groups; ++g) {
    const uint32_t size = ends[g];
    ends[g] = sorted;
    sorted += size;
  }
  for (size_t i = 0; i < n; ++i) {
    if (codes[i] != kNullCategory) {
      order[ends[static_cast<size_t>(codes[i])]++] = static_cast<uint32_t>(i);
    }
  }
  GroupLane tile[4];
  int width = 0;
  for (size_t p = begin; p < end; ++p) {
    tile[width] = {buf.nums + gather_slot_[mpairs[p].second] * buf.stride,
                   groups_.data() + group_offsets_[p]};
    if (++width == 4) {
      AccumulateGroupTile<4, kSigned>(tile, codes, order, ends, sorted,
                                      buf.signs);
      width = 0;
    }
  }
  RunTileRemainder(width, [&](auto w) {
    AccumulateGroupTile<decltype(w)::value, kSigned>(tile, codes, order, ends,
                                                     sorted, buf.signs);
  });
}

void SelectionSketches::FinishNullFreePairs(const Table& table,
                                            const TableProfile& profile) {
  const auto& npairs = profile.tracked_numeric_pairs();
  for (size_t t = 0; t < npairs.size(); ++t) {
    const auto [a, b] = npairs[t];
    if (!IsNullFree(table, profile, a) || !IsNullFree(table, profile, b)) {
      continue;
    }
    const MomentSketch& sx = column_sketches_[a];
    const MomentSketch& sy = column_sketches_[b];
    PairMomentSketch& s = numeric_pair_sketches_[t];
    s.count = sx.count;
    s.sum_x = sx.sum;
    s.sum_y = sy.sum;
    s.sum_xx = sx.sum_sq;
    s.sum_yy = sy.sum_sq;
  }
}

template <typename Decode, typename Fn>
void SelectionSketches::ForEachRowBlock(size_t num_words, size_t block_rows,
                                        size_t partitions, Decode&& decode,
                                        Fn&& fn) const {
  if (block_rows == 0) block_rows = kDefaultBlockRows;
  const size_t block_words =
      std::max<size_t>(1, block_rows / Selection::kWordBits);
  const size_t stride = std::min(block_words, num_words) * Selection::kWordBits;
  size_t group_stride = 0;
  for (size_t i = 0; i + 1 < group_offsets_.size(); ++i) {
    group_stride =
        std::max(group_stride, group_offsets_[i + 1] - group_offsets_[i]);
  }
  // Partition 0 sinks into stripe 0 of each kind; partition p > 0 into the
  // p-th stripe past the pair stripes, so no two workers write one stripe.
  ScanWorkspace& ws = ThreadScanWorkspace();
  uint32_t* rows = AtLeast(&ws.rows, stride);
  double* signs = AtLeast(&ws.signs, stride);
  GatherBuffers buf;
  buf.nums = AtLeast(&ws.nums, (numeric_stripes_ + partitions - 1) * stride);
  buf.codes = AtLeast(&ws.codes, (code_stripes_ + partitions - 1) * stride);
  buf.stride = stride;
  buf.order = AtLeast(&ws.order, partitions * stride);
  buf.group_ends = AtLeast(&ws.group_ends, partitions * group_stride);
  buf.group_stride = group_stride;
  buf.signs = signs;
  for (size_t w = 0; w < num_words; w += block_words) {
    const size_t n = decode(w, std::min(w + block_words, num_words), rows,
                            signs);
    if (n > 0) fn(rows, n, buf);
  }
}

namespace {

// Block decoder of a scan: the selected rows of words [w, we), ascending.
auto DecodeSelection(const Selection& selection) {
  return [&selection](size_t w, size_t we, uint32_t* rows, double*) {
    size_t n = 0;
    selection.ForEachSetBitInWords(
        w, we, [rows, &n](size_t r) { rows[n++] = static_cast<uint32_t>(r); });
    return n;
  };
}

}  // namespace

template <bool kSigned, typename Decode>
void SelectionSketches::AccumulateBlocks(const Table& table,
                                         const TableProfile& profile,
                                         size_t num_words, size_t block_rows,
                                         Decode&& decode) {
  const TaskRange cols{0, table.num_columns()};
  const TaskRange pairs{0, numeric_pair_sketches_.size() +
                               group_offsets_.size() - 1 +
                               table_offsets_.size() - 1};
  ForEachRowBlock(
      num_words, block_rows, 1, decode,
      [&](const uint32_t* rows, size_t n, const GatherBuffers& buf) {
        AccumulateUnary<kSigned>(table, profile, rows, n, cols, buf, buf.nums,
                                 buf.codes);
        AccumulatePairs<kSigned>(table, profile, n, pairs, buf, 0);
      });
  FinishNullFreePairs(table, profile);
}

void SelectionSketches::AccumulateColumns(const Table& table,
                                          const TableProfile& profile,
                                          const Selection& selection,
                                          size_t block_rows) {
  AccumulateBlocks<false>(table, profile, selection.num_words(), block_rows,
                          DecodeSelection(selection));
}

void SelectionSketches::ApplyDelta(const Table& table,
                                   const TableProfile& profile,
                                   const Selection& from, const Selection& to) {
  ZIGGY_DCHECK(from.num_rows() == to.num_rows());
  const uint64_t* from_words = from.words().data();
  const uint64_t* to_words = to.words().data();
  // Block decoder of a patch: the rows of words [w, we) on which the two
  // selections differ, ascending, each signed by whether `to` selects it.
  const auto decode = [from_words, to_words](size_t w, size_t we,
                                             uint32_t* rows, double* signs) {
    size_t n = 0;
    for (; w < we; ++w) {
      uint64_t diff = from_words[w] ^ to_words[w];
      const size_t base = w * Selection::kWordBits;
      while (diff != 0) {
        const int bit = std::countr_zero(diff);
        diff &= diff - 1;
        rows[n] = static_cast<uint32_t>(base + static_cast<size_t>(bit));
        signs[n] = (to_words[w] >> bit) & 1 ? 1.0 : -1.0;
        ++n;
      }
    }
    return n;
  };
  AccumulateBlocks<true>(table, profile, to.num_words(), 0, decode);
}

void SelectionSketches::AccumulateColumnsParallel(const Table& table,
                                                  const TableProfile& profile,
                                                  const Selection& selection,
                                                  size_t block_rows,
                                                  size_t threads) {
  const size_t num_pairs = numeric_pair_sketches_.size() +
                           group_offsets_.size() - 1 +
                           table_offsets_.size() - 1;
  ForEachRowBlock(
      selection.num_words(), block_rows, threads, DecodeSelection(selection),
      [&](const uint32_t* rows, size_t n, const GatherBuffers& buf) {
        ParallelFor(threads, table.num_columns(),
                    [&](TaskRange cols, size_t part) {
                      const size_t num_sink =
                          part == 0 ? 0 : numeric_stripes_ + part - 1;
                      const size_t code_sink =
                          part == 0 ? 0 : code_stripes_ + part - 1;
                      AccumulateUnary<false>(
                          table, profile, rows, n, cols, buf,
                          buf.nums + num_sink * buf.stride,
                          buf.codes + code_sink * buf.stride);
                    });
        ParallelFor(threads, num_pairs, [&](TaskRange pairs, size_t part) {
          AccumulatePairs<false>(table, profile, n, pairs, buf, part);
        });
      });
  FinishNullFreePairs(table, profile);
}

SelectionSketches SelectionSketches::Build(const Table& table,
                                           const TableProfile& profile,
                                           const Selection& selection,
                                           size_t num_threads, size_t block_rows) {
  SelectionSketches out;
  out.InitShapes(table, profile);
  const size_t threads =
      ThreadsForCells(num_threads, selection.Count() * table.num_columns());
  if (threads <= 1) {
    out.AccumulateColumns(table, profile, selection, block_rows);
  } else {
    out.AccumulateColumnsParallel(table, profile, selection, block_rows,
                                  threads);
  }
  return out;
}

void SelectionSketches::DeriveAsComplement(const TableProfile& profile,
                                           const SelectionSketches& other) {
  const size_t m = profile.num_columns();
  for (size_t c = 0; c < m; ++c) {
    column_sketches_[c] = profile.ColumnSketch(c);
    column_sketches_[c].Subtract(other.column_sketches_[c]);
    // The doubled midranks of a column's n non-NULL values sum to
    // n(n + 1); a categorical column has n = 0 and rank sums of 0.
    const int64_t n = profile.ColumnSketch(c).count;
    rank_sums_[c] = n * (n + 1) - other.rank_sums_[c];
    // A column has category counts or a histogram, never both.
    const std::vector<int64_t>& global = profile.CategoryCountsOf(c).empty()
                                             ? profile.HistogramCountsOf(c)
                                             : profile.CategoryCountsOf(c);
    const size_t off = cell_offsets_[c];
    for (size_t k = 0; k < global.size(); ++k) {
      cells_[off + k] = global[k] - other.cells_[off + k];
    }
  }
  for (size_t i = 0; i < numeric_pair_sketches_.size(); ++i) {
    numeric_pair_sketches_[i] = profile.NumericPairSketch(static_cast<int64_t>(i));
    numeric_pair_sketches_[i].Subtract(other.numeric_pair_sketches_[i]);
  }
  for (size_t i = 0; i + 1 < group_offsets_.size(); ++i) {
    const auto& global = profile.MixedPairGroups(i).groups;
    const size_t off = group_offsets_[i];
    for (size_t g = 0; g < global.size(); ++g) {
      groups_[off + g] = global[g];
      groups_[off + g].Subtract(other.groups_[off + g]);
    }
  }
  for (size_t i = 0; i + 1 < table_offsets_.size(); ++i) {
    const auto& global = profile.CategoricalPairTable(i);
    const size_t off = table_offsets_[i];
    for (size_t k = 0; k < global.size(); ++k) {
      table_cells_[off + k] = global[k] - other.table_cells_[off + k];
    }
  }
}

namespace {

template <typename T>
size_t HeapBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

bool SameMoments(const MomentSketch& a, const MomentSketch& b) {
  return a.count == b.count && a.sum == b.sum && a.sum_sq == b.sum_sq;
}

bool SamePairMoments(const PairMomentSketch& a, const PairMomentSketch& b) {
  return a.count == b.count && a.sum_x == b.sum_x && a.sum_y == b.sum_y &&
         a.sum_xx == b.sum_xx && a.sum_yy == b.sum_yy && a.sum_xy == b.sum_xy;
}

}  // namespace

size_t SelectionSketches::MemoryUsageBytes() const {
  return HeapBytes(column_sketches_) + HeapBytes(rank_sums_) +
         HeapBytes(binners_) + HeapBytes(cell_offsets_) + HeapBytes(cells_) +
         HeapBytes(numeric_pair_sketches_) + HeapBytes(group_offsets_) +
         HeapBytes(groups_) + HeapBytes(table_offsets_) +
         HeapBytes(table_cells_) + HeapBytes(gather_slot_);
}

bool SelectionSketches::Equals(const SelectionSketches& other) const {
  if (binners_.size() != other.binners_.size()) return false;
  for (size_t c = 0; c < binners_.size(); ++c) {
    if (binners_[c].bins != other.binners_[c].bins) return false;
  }
  return std::ranges::equal(column_sketches_, other.column_sketches_,
                            SameMoments) &&
         rank_sums_ == other.rank_sums_ &&
         cell_offsets_ == other.cell_offsets_ && cells_ == other.cells_ &&
         std::ranges::equal(numeric_pair_sketches_,
                            other.numeric_pair_sketches_, SamePairMoments) &&
         group_offsets_ == other.group_offsets_ &&
         std::ranges::equal(groups_, other.groups_, SameMoments) &&
         table_offsets_ == other.table_offsets_ &&
         table_cells_ == other.table_cells_;
}

}  // namespace ziggy
