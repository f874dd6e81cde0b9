#include "zig/selection_sketches.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "common/parallel.h"
#include "storage/types.h"

namespace ziggy {

void SelectionSketches::InitShapes(const Table& table, const TableProfile& profile) {
  const size_t m = table.num_columns();
  column_sketches_.assign(m, MomentSketch{});
  category_counts_.assign(m, {});
  histograms_.assign(m, {});
  binners_.assign(m, HistogramBinner{});
  for (size_t c = 0; c < m; ++c) {
    const Column& col = table.column(c);
    if (col.is_categorical()) {
      category_counts_[c].assign(col.cardinality(), 0);
    } else if (!profile.HistogramCountsOf(c).empty()) {
      const size_t bins = profile.HistogramCountsOf(c).size();
      histograms_[c].assign(bins, 0);
      const auto [lo, hi] = profile.ColumnRange(c);
      binners_[c] = HistogramBinner::Make(lo, hi, bins);
    }
  }
  numeric_pair_sketches_.assign(profile.tracked_numeric_pairs().size(),
                                PairMomentSketch{});
  mixed_pair_groups_.resize(profile.tracked_mixed_pairs().size());
  for (size_t i = 0; i < profile.tracked_mixed_pairs().size(); ++i) {
    mixed_pair_groups_[i].assign(profile.MixedPairGroups(i).groups.size(),
                                 MomentSketch{});
  }
  categorical_pair_tables_.resize(profile.tracked_categorical_pairs().size());
  for (size_t i = 0; i < profile.tracked_categorical_pairs().size(); ++i) {
    categorical_pair_tables_[i].assign(profile.CategoricalPairTable(i).size(), 0);
  }
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
      const double v = col.numeric_data()[r];
      if (IsNullNumeric(v)) continue;
      if constexpr (Sign == 1) {
        column_sketches_[c].Add(v);
      } else {
        column_sketches_[c].Remove(v);
      }
      if (!histograms_[c].empty()) {
        histograms_[c][binners_[c].BinOf(v)] += Sign;
      }
    } else {
      const CategoryCode code = col.codes()[r];
      if (code != kNullCategory) {
        category_counts_[c][static_cast<size_t>(code)] += Sign;
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
    if constexpr (Sign == 1) {
      mixed_pair_groups_[i][static_cast<size_t>(code)].Add(x);
    } else {
      mixed_pair_groups_[i][static_cast<size_t>(code)].Remove(x);
    }
  }
  const auto& cpairs = profile.tracked_categorical_pairs();
  for (size_t i = 0; i < cpairs.size(); ++i) {
    const CategoryCode ca = table.column(cpairs[i].first).codes()[r];
    const CategoryCode cb = table.column(cpairs[i].second).codes()[r];
    if (ca == kNullCategory || cb == kNullCategory) continue;
    const size_t kb = table.column(cpairs[i].second).cardinality();
    categorical_pair_tables_[i][static_cast<size_t>(ca) * kb +
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

void SelectionSketches::ApplyDelta(const Table& table,
                                   const TableProfile& profile,
                                   const Selection& from, const Selection& to) {
  ZIGGY_DCHECK(from.num_rows() == to.num_rows());
  const auto& from_words = from.words();
  const auto& to_words = to.words();
  for (size_t w = 0; w < to_words.size(); ++w) {
    uint64_t diff = from_words[w] ^ to_words[w];
    const size_t base = w * Selection::kWordBits;
    while (diff != 0) {
      const size_t r = base + static_cast<size_t>(std::countr_zero(diff));
      diff &= diff - 1;
      if (to.Contains(r)) {
        AddRow(table, profile, r);
      } else {
        RemoveRow(table, profile, r);
      }
    }
  }
}

namespace {

// The calling thread's gather workspace: one block of decoded row indices
// and the numeric and categorical stripes. Scans never nest on a thread,
// so one workspace per thread is enough; the daemon's dispatch threads are
// long-lived, so it is reused. A parallel scan's pool workers write into
// the caller's workspace, never their own.
struct ScanWorkspace {
  std::vector<uint32_t> rows;
  std::vector<double> nums;
  std::vector<CategoryCode> codes;
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
  double* gather;  // the column's stripe, or the sink stripe
  int64_t* hist;   // histogram counts, or a one-cell sink
  HistogramBinner binner;
  MomentSketch* sketch;
};

// Unary statistics of W numeric columns in one pass over the block. The
// W lanes' (count, sum, sum_sq) chains and histogram increments are
// independent, so they overlap; each lane still adds its values in
// ascending row order, continuing the sketch's chains across blocks, so
// every sum is bit-identical to AddRow. A histogram-less lane counts into
// its sink cell (a default binner maps every value to bin 0). Selected
// rows ascend but are sparse at low densities, where the hardware
// prefetcher falls behind, so each row prefetches its lanes' cells
// kPrefetchRows selected rows ahead.
constexpr size_t kPrefetchRows = 8;

template <int W>
void AccumulateUnaryTile(const UnaryLane* lanes, const uint32_t* rows,
                         size_t n) {
  const double* data[W];
  double* gather[W];
  int64_t* hist[W];
  HistogramBinner binner[W];
  int64_t count[W];
  double sum[W];
  double sum_sq[W];
  for (int j = 0; j < W; ++j) {
    data[j] = lanes[j].data;
    gather[j] = lanes[j].gather;
    hist[j] = lanes[j].hist;
    binner[j] = lanes[j].binner;
    count[j] = lanes[j].sketch->count;
    sum[j] = lanes[j].sketch->sum;
    sum_sq[j] = lanes[j].sketch->sum_sq;
  }
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = rows[i];
    const uint32_t ahead = rows[std::min(i + kPrefetchRows, n - 1)];
    for (int j = 0; j < W; ++j) __builtin_prefetch(data[j] + ahead);
    for (int j = 0; j < W; ++j) {
      const double v = data[j][r];
      gather[j][i] = v;
      if (IsNullNumeric(v)) continue;
      ++count[j];
      sum[j] += v;
      sum_sq[j] += v * v;
      ++hist[j][binner[j].BinOf(v)];
    }
  }
  for (int j = 0; j < W; ++j) {
    lanes[j].sketch->count = count[j];
    lanes[j].sketch->sum = sum[j];
    lanes[j].sketch->sum_sq = sum_sq[j];
  }
}

}  // namespace

void SelectionSketches::AccumulateUnary(const Table& table,
                                        const uint32_t* rows, size_t n,
                                        TaskRange cols, double* nums,
                                        CategoryCode* codes, size_t stride,
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
    if (col.is_numeric()) {
      UnaryLane& lane = tile[width];
      lane.data = col.numeric_data().data();
      lane.gather =
          gather_slot_[c] == 0 ? num_sink : nums + gather_slot_[c] * stride;
      lane.hist = histograms_[c].empty() ? &hist_sink[width]
                                         : histograms_[c].data();
      lane.binner = binners_[c];
      lane.sketch = &column_sketches_[c];
      if (++width == 4) {
        AccumulateUnaryTile<4>(tile, rows, n);
        width = 0;
      }
      continue;
    }
    const CategoryCode* data = col.codes().data();
    CategoryCode* gather =
        gather_slot_[c] == 0 ? code_sink : codes + gather_slot_[c] * stride;
    int64_t* counts = category_counts_[c].data();
    for (size_t i = 0; i < n; ++i) {
      const CategoryCode code = data[rows[i]];
      gather[i] = code;
      if (code != kNullCategory) ++counts[static_cast<size_t>(code)];
    }
  }
  switch (width) {
    case 3:
      AccumulateUnaryTile<3>(tile, rows, n);
      break;
    case 2:
      AccumulateUnaryTile<2>(tile, rows, n);
      break;
    case 1:
      AccumulateUnaryTile<1>(tile, rows, n);
      break;
    default:
      break;
  }
}

void SelectionSketches::AccumulatePairs(const Table& table,
                                        const TableProfile& profile, size_t n,
                                        TaskRange pairs, const double* nums,
                                        const CategoryCode* codes,
                                        size_t stride) {
  const auto num_stripe = [&](size_t c) {
    return nums + gather_slot_[c] * stride;
  };
  const auto code_stripe = [&](size_t c) {
    return codes + gather_slot_[c] * stride;
  };
  const auto& npairs = profile.tracked_numeric_pairs();
  const auto& mpairs = profile.tracked_mixed_pairs();
  const auto& cpairs = profile.tracked_categorical_pairs();
  for (size_t t = pairs.begin; t < pairs.end; ++t) {
    if (t < npairs.size()) {
      // Numeric pair sketches (dense stripe reads).
      const double* x = num_stripe(npairs[t].first);
      const double* y = num_stripe(npairs[t].second);
      PairMomentSketch s = numeric_pair_sketches_[t];
      for (size_t i = 0; i < n; ++i) {
        if (!IsNullNumeric(x[i]) && !IsNullNumeric(y[i])) s.Add(x[i], y[i]);
      }
      numeric_pair_sketches_[t] = s;
    } else if (const size_t p = t - npairs.size(); p < mpairs.size()) {
      // Mixed pair grouped moments.
      const CategoryCode* group = code_stripe(mpairs[p].first);
      const double* x = num_stripe(mpairs[p].second);
      MomentSketch* groups = mixed_pair_groups_[p].data();
      for (size_t i = 0; i < n; ++i) {
        const CategoryCode code = group[i];
        if (code != kNullCategory && !IsNullNumeric(x[i])) {
          groups[static_cast<size_t>(code)].Add(x[i]);
        }
      }
    } else {
      // Categorical pair contingency tables.
      const size_t q = p - mpairs.size();
      const CategoryCode* a = code_stripe(cpairs[q].first);
      const CategoryCode* b = code_stripe(cpairs[q].second);
      const size_t kb = table.column(cpairs[q].second).cardinality();
      int64_t* cells = categorical_pair_tables_[q].data();
      for (size_t i = 0; i < n; ++i) {
        const CategoryCode ca = a[i];
        const CategoryCode cb = b[i];
        if (ca != kNullCategory && cb != kNullCategory) {
          ++cells[static_cast<size_t>(ca) * kb + static_cast<size_t>(cb)];
        }
      }
    }
  }
}

namespace {

// Decodes `selection` block by block into the calling thread's workspace
// and calls fn(rows, n, nums, codes, stride) for each non-empty block,
// with room for `numeric_stripes` and `code_stripes` gather stripes.
template <typename Fn>
void ForEachRowBlock(const Selection& selection, size_t block_rows,
                     size_t numeric_stripes, size_t code_stripes, Fn&& fn) {
  const size_t num_words = selection.num_words();
  if (block_rows == 0) block_rows = SelectionSketches::kDefaultBlockRows;
  const size_t block_words =
      std::max<size_t>(1, block_rows / Selection::kWordBits);
  const size_t stride = std::min(block_words, num_words) * Selection::kWordBits;
  ScanWorkspace& ws = ThreadScanWorkspace();
  uint32_t* rows = AtLeast(&ws.rows, stride);
  double* nums = AtLeast(&ws.nums, numeric_stripes * stride);
  CategoryCode* codes = AtLeast(&ws.codes, code_stripes * stride);
  for (size_t w = 0; w < num_words; w += block_words) {
    const size_t we = std::min(w + block_words, num_words);
    size_t n = 0;
    selection.ForEachSetBitInWords(
        w, we, [rows, &n](size_t r) { rows[n++] = static_cast<uint32_t>(r); });
    if (n > 0) fn(rows, n, nums, codes, stride);
  }
}

}  // namespace

void SelectionSketches::AccumulateColumns(const Table& table,
                                          const TableProfile& profile,
                                          const Selection& selection,
                                          size_t block_rows) {
  const TaskRange cols{0, table.num_columns()};
  const TaskRange pairs{0, numeric_pair_sketches_.size() +
                               mixed_pair_groups_.size() +
                               categorical_pair_tables_.size()};
  ForEachRowBlock(selection, block_rows, numeric_stripes_, code_stripes_,
                  [&](const uint32_t* rows, size_t n, double* nums,
                      CategoryCode* codes, size_t stride) {
                    AccumulateUnary(table, rows, n, cols, nums, codes, stride,
                                    nums, codes);
                    AccumulatePairs(table, profile, n, pairs, nums, codes,
                                    stride);
                  });
}

void SelectionSketches::AccumulateColumnsParallel(const Table& table,
                                                  const TableProfile& profile,
                                                  const Selection& selection,
                                                  size_t block_rows,
                                                  size_t threads) {
  const size_t num_pairs = numeric_pair_sketches_.size() +
                           mixed_pair_groups_.size() +
                           categorical_pair_tables_.size();
  // Partition 0 sinks into stripe 0 of each kind; partition p > 0 into the
  // p-th stripe past the pair stripes, so no two workers write one stripe.
  ForEachRowBlock(
      selection, block_rows, numeric_stripes_ + threads - 1,
      code_stripes_ + threads - 1,
      [&](const uint32_t* rows, size_t n, double* nums, CategoryCode* codes,
          size_t stride) {
        ParallelFor(threads, table.num_columns(),
                    [&](TaskRange cols, size_t part) {
                      const size_t num_sink =
                          part == 0 ? 0 : numeric_stripes_ + part - 1;
                      const size_t code_sink =
                          part == 0 ? 0 : code_stripes_ + part - 1;
                      AccumulateUnary(table, rows, n, cols, nums, codes,
                                      stride, nums + num_sink * stride,
                                      codes + code_sink * stride);
                    });
        ParallelFor(threads, num_pairs, [&](TaskRange pairs, size_t) {
          AccumulatePairs(table, profile, n, pairs, nums, codes, stride);
        });
      });
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
    if (!profile.CategoryCountsOf(c).empty()) {
      const auto& global = profile.CategoryCountsOf(c);
      for (size_t k = 0; k < global.size(); ++k) {
        category_counts_[c][k] = global[k] - other.category_counts_[c][k];
      }
    }
    if (!profile.HistogramCountsOf(c).empty()) {
      const auto& global = profile.HistogramCountsOf(c);
      for (size_t k = 0; k < global.size(); ++k) {
        histograms_[c][k] = global[k] - other.histograms_[c][k];
      }
    }
  }
  for (size_t i = 0; i < numeric_pair_sketches_.size(); ++i) {
    numeric_pair_sketches_[i] = profile.NumericPairSketch(static_cast<int64_t>(i));
    numeric_pair_sketches_[i].Subtract(other.numeric_pair_sketches_[i]);
  }
  for (size_t i = 0; i < mixed_pair_groups_.size(); ++i) {
    const auto& global = profile.MixedPairGroups(i).groups;
    for (size_t g = 0; g < global.size(); ++g) {
      mixed_pair_groups_[i][g] = global[g];
      mixed_pair_groups_[i][g].Subtract(other.mixed_pair_groups_[i][g]);
    }
  }
  for (size_t i = 0; i < categorical_pair_tables_.size(); ++i) {
    const auto& global = profile.CategoricalPairTable(i);
    for (size_t k = 0; k < global.size(); ++k) {
      categorical_pair_tables_[i][k] = global[k] - other.categorical_pair_tables_[i][k];
    }
  }
}

size_t SelectionSketches::MemoryUsageBytes() const {
  size_t bytes = column_sketches_.capacity() * sizeof(MomentSketch);
  bytes += category_counts_.capacity() * sizeof(category_counts_[0]);
  for (const auto& v : category_counts_) bytes += v.capacity() * sizeof(int64_t);
  bytes += numeric_pair_sketches_.capacity() * sizeof(PairMomentSketch);
  bytes += mixed_pair_groups_.capacity() * sizeof(mixed_pair_groups_[0]);
  for (const auto& v : mixed_pair_groups_) bytes += v.capacity() * sizeof(MomentSketch);
  bytes += categorical_pair_tables_.capacity() *
           sizeof(categorical_pair_tables_[0]);
  for (const auto& v : categorical_pair_tables_) {
    bytes += v.capacity() * sizeof(int64_t);
  }
  bytes += histograms_.capacity() * sizeof(histograms_[0]);
  for (const auto& v : histograms_) bytes += v.capacity() * sizeof(int64_t);
  bytes += binners_.capacity() * sizeof(HistogramBinner);
  bytes += gather_slot_.capacity() * sizeof(uint32_t);
  return bytes;
}

bool SelectionSketches::Equals(const SelectionSketches& other) const {
  auto sketch_eq = [](const MomentSketch& a, const MomentSketch& b) {
    return a.count == b.count && a.sum == b.sum && a.sum_sq == b.sum_sq;
  };
  if (column_sketches_.size() != other.column_sketches_.size()) return false;
  for (size_t i = 0; i < column_sketches_.size(); ++i) {
    if (!sketch_eq(column_sketches_[i], other.column_sketches_[i])) {
      return false;
    }
  }
  if (category_counts_ != other.category_counts_) return false;
  if (numeric_pair_sketches_.size() != other.numeric_pair_sketches_.size()) {
    return false;
  }
  for (size_t i = 0; i < numeric_pair_sketches_.size(); ++i) {
    const auto& a = numeric_pair_sketches_[i];
    const auto& b = other.numeric_pair_sketches_[i];
    if (a.count != b.count || a.sum_x != b.sum_x || a.sum_y != b.sum_y ||
        a.sum_xx != b.sum_xx || a.sum_yy != b.sum_yy || a.sum_xy != b.sum_xy) {
      return false;
    }
  }
  if (mixed_pair_groups_.size() != other.mixed_pair_groups_.size()) {
    return false;
  }
  for (size_t i = 0; i < mixed_pair_groups_.size(); ++i) {
    if (mixed_pair_groups_[i].size() != other.mixed_pair_groups_[i].size()) {
      return false;
    }
    for (size_t g = 0; g < mixed_pair_groups_[i].size(); ++g) {
      if (!sketch_eq(mixed_pair_groups_[i][g],
                     other.mixed_pair_groups_[i][g])) {
        return false;
      }
    }
  }
  if (categorical_pair_tables_ != other.categorical_pair_tables_) return false;
  if (histograms_ != other.histograms_) return false;
  return true;
}

}  // namespace ziggy
