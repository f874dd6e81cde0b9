#include "zig/profile.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "stats/dependency.h"
#include "stats/histogram.h"
#include "storage/types.h"

namespace ziggy {

namespace {

// Cramér's V from a row-major contingency table with given marginal arities.
double CramersVFromTable(const std::vector<int64_t>& table, size_t rows, size_t cols) {
  if (rows < 2 || cols < 2) return 0.0;
  std::vector<int64_t> row_sum(rows, 0);
  std::vector<int64_t> col_sum(cols, 0);
  int64_t n = 0;
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      const int64_t v = table[i * cols + j];
      row_sum[i] += v;
      col_sum[j] += v;
      n += v;
    }
  }
  if (n == 0) return 0.0;
  double chi2 = 0.0;
  for (size_t i = 0; i < rows; ++i) {
    if (row_sum[i] == 0) continue;
    for (size_t j = 0; j < cols; ++j) {
      if (col_sum[j] == 0) continue;
      const double expected = static_cast<double>(row_sum[i]) *
                              static_cast<double>(col_sum[j]) / static_cast<double>(n);
      const double diff = static_cast<double>(table[i * cols + j]) - expected;
      chi2 += diff * diff / expected;
    }
  }
  const double k = static_cast<double>(std::min(rows, cols)) - 1.0;
  if (k <= 0.0) return 0.0;
  return std::sqrt(std::clamp(chi2 / (static_cast<double>(n) * k), 0.0, 1.0));
}

// Correlation ratio eta from per-category group moments; -1.0 when there
// are too few observations (sentinel: such pairs are never tracked and
// their dependency entry is left untouched).
double EtaFromGroupMoments(const std::vector<MomentSketch>& groups) {
  MomentSketch total;
  double ss_between = 0.0;
  for (const auto& g : groups) total.Merge(g);
  if (total.count < 2) return -1.0;
  const double grand_mean = total.Mean();
  for (const auto& g : groups) {
    if (g.count == 0) continue;
    const double d = g.Mean() - grand_mean;
    ss_between += static_cast<double>(g.count) * d * d;
  }
  const double n = static_cast<double>(total.count);
  const double ss_total = std::max(0.0, total.sum_sq - total.sum * total.sum / n);
  return ss_total > 0.0 ? std::sqrt(std::clamp(ss_between / ss_total, 0.0, 1.0)) : 0.0;
}

}  // namespace

namespace internal {

// Sorts the non-NULL values with an LSD radix sort on order-preserving
// 64-bit keys: -0.0 is folded into +0.0 and the bits of a negative value
// are inverted, the others get the sign bit set, so equal values have
// equal keys and keys order as the values do. A pass whose digit is the
// same for every key moves nothing and is skipped. Then every row of a run
// of k equal keys starting at sorted position i gets the same
// 2L + E + 1 = 2i + k + 1; the order inside a run does not matter.
std::vector<uint32_t> DoubledMidranks(const std::vector<double>& data) {
  constexpr int kDigitBits = 11;
  constexpr size_t kBuckets = size_t{1} << kDigitBits;
  constexpr int kPasses = (64 + kDigitBits - 1) / kDigitBits;
  struct Entry {
    uint64_t key;
    uint32_t row;
  };
  std::vector<Entry> sorted;
  sorted.reserve(data.size());
  for (size_t r = 0; r < data.size(); ++r) {
    const double v = data[r];
    if (IsNullNumeric(v)) continue;
    const uint64_t bits = std::bit_cast<uint64_t>(v == 0.0 ? 0.0 : v);
    const uint64_t key = (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
    sorted.push_back({key, static_cast<uint32_t>(r)});
  }
  std::vector<std::array<uint32_t, kBuckets>> counts(kPasses);
  for (const Entry& e : sorted) {
    for (int p = 0; p < kPasses; ++p) {
      ++counts[p][(e.key >> (p * kDigitBits)) & (kBuckets - 1)];
    }
  }
  std::vector<Entry> scratch(sorted.size());
  for (int p = 0; p < kPasses && !sorted.empty(); ++p) {
    const int shift = p * kDigitBits;
    std::array<uint32_t, kBuckets>& offset = counts[p];
    if (offset[(sorted[0].key >> shift) & (kBuckets - 1)] == sorted.size()) {
      continue;
    }
    uint32_t sum = 0;
    for (uint32_t& c : offset) {
      const uint32_t count = c;
      c = sum;
      sum += count;
    }
    for (const Entry& e : sorted) {
      scratch[offset[(e.key >> shift) & (kBuckets - 1)]++] = e;
    }
    sorted.swap(scratch);
  }
  std::vector<uint32_t> rank2(data.size(), 0);
  for (size_t i = 0; i < sorted.size();) {
    size_t j = i + 1;
    while (j < sorted.size() && sorted[j].key == sorted[i].key) ++j;
    const auto r2 = static_cast<uint32_t>(i + j + 1);
    for (size_t k = i; k < j; ++k) rank2[sorted[k].row] = r2;
    i = j;
  }
  return rank2;
}

}  // namespace internal

namespace {

// Shifts `rank2` (doubled midranks of data[0, old_rows)) in place to the
// doubled midranks of all of `data`, whose rows from old_rows on are new.
// An old row of value v gains 2*L_B(v) + E_B(v) from the batch's values
// below and equal to v, found by binary search in the sorted batch. The
// same pass tallies, per sorted batch slot, the old values below it and
// equal to it (difference arrays), which completes each new row's rank.
// O(N log b) for a batch of b rows.
void ShiftMidranks(const std::vector<double>& data, size_t old_rows,
                   std::vector<uint32_t>* rank2) {
  std::vector<double> batch;
  for (size_t r = old_rows; r < data.size(); ++r) {
    if (!IsNullNumeric(data[r])) batch.push_back(data[r]);
  }
  std::sort(batch.begin(), batch.end());
  const size_t b = batch.size();
  // old_below[k] / old_equal[k] first collect difference entries, then are
  // prefix-summed into the old-value counts for batch slot k.
  std::vector<int64_t> old_below(b + 1, 0);
  std::vector<int64_t> old_equal(b + 1, 0);
  // Slots [lo, hi) of the sorted batch hold the values equal to v.
  const auto batch_slots = [&batch](double v) {
    const auto [first, last] = std::equal_range(batch.begin(), batch.end(), v);
    return std::pair<size_t, size_t>(
        static_cast<size_t>(first - batch.begin()),
        static_cast<size_t>(last - batch.begin()));
  };
  for (size_t r = 0; r < old_rows; ++r) {
    const double v = data[r];
    if (IsNullNumeric(v)) continue;
    const auto [lo, hi] = batch_slots(v);
    (*rank2)[r] += static_cast<uint32_t>(2 * lo + (hi - lo));
    ++old_below[hi];  // v is below every batch value from slot hi on
    ++old_equal[lo];  // ... and equal to slots [lo, hi)
    --old_equal[hi];
  }
  for (size_t k = 1; k <= b; ++k) {
    old_below[k] += old_below[k - 1];
    old_equal[k] += old_equal[k - 1];
  }
  rank2->resize(data.size(), 0);
  for (size_t r = old_rows; r < data.size(); ++r) {
    const double v = data[r];
    if (IsNullNumeric(v)) continue;
    const auto [lo, hi] = batch_slots(v);
    const int64_t below = old_below[lo] + static_cast<int64_t>(lo);
    const int64_t equal = old_equal[lo] + static_cast<int64_t>(hi - lo);
    (*rank2)[r] = static_cast<uint32_t>(2 * below + equal + 1);
  }
}

// Side of the Gram register tile: 16 independent accumulator chains.
constexpr size_t kGramTile = 4;
using GramBlock = std::array<std::array<double, kGramTile>, kGramTile>;

// sum_r xs[u][r] * ys[v][r] for every (u, v) of a 4x4 tile. Each
// accumulator starts at 0.0 and adds its products in row order with the
// expression PairMomentSketch::Add uses, so every entry is bitwise that
// pair's per-row sum_xy; the 16 independent chains hide the FP add
// latency one pair's five dependent chains expose.
GramBlock GramTile(const std::array<const double*, kGramTile>& xs,
                   const std::array<const double*, kGramTile>& ys,
                   size_t rows) {
  GramBlock acc{};
  for (size_t r = 0; r < rows; ++r) {
    double x[kGramTile];
    double y[kGramTile];
    for (size_t u = 0; u < kGramTile; ++u) {
      x[u] = xs[u][r];
      y[u] = ys[u][r];
    }
    for (size_t u = 0; u < kGramTile; ++u) {
      for (size_t v = 0; v < kGramTile; ++v) acc[u][v] += x[u] * y[v];
    }
  }
  return acc;
}

}  // namespace

size_t HistogramBinOf(double v, double lo, double hi, size_t bins) {
  ZIGGY_DCHECK(bins > 0);
  return HistogramBinner::Make(lo, hi, bins).BinOf(v);
}

Result<TableProfile> TableProfile::Compute(const Table& table, ProfileOptions options) {
  if (table.num_columns() == 0) {
    return Status::InvalidArgument("cannot profile a table with no columns");
  }
  TableProfile p;
  p.num_columns_ = table.num_columns();
  p.num_rows_ = table.num_rows();
  p.options_ = options;
  const size_t m = p.num_columns_;
  p.column_sketches_.resize(m);
  p.category_counts_.resize(m);
  p.ranges_.assign(m, {0.0, 0.0});
  p.rank2_.resize(m);
  p.histograms_.resize(m);
  p.dependency_.assign(m * m, 0.0);
  p.numeric_pair_index_.assign(m * m, -1);

  // ---- Column-level scans ----------------------------------------------
  // One task per column; every task writes only its own profile slots, so
  // the parallel fill is race-free and the result is independent of the
  // thread count (each column is scanned start-to-finish by one worker).
  const size_t threads =
      ThreadsForCells(options.num_threads, table.num_rows() * m);
  std::vector<size_t> numeric_cols;
  std::vector<size_t> categorical_cols;
  for (size_t c = 0; c < m; ++c) {
    if (table.column(c).is_numeric()) {
      numeric_cols.push_back(c);
    } else {
      categorical_cols.push_back(c);
    }
  }
  ParallelForEach(threads, m, [&](size_t c) {
    const Column& col = table.column(c);
    if (col.is_numeric()) {
      NumericStats ns = ComputeNumericStats(col.numeric_data());
      p.ranges_[c] = {ns.count > 0 ? ns.min : 0.0, ns.count > 0 ? ns.max : 0.0};
      for (double v : col.numeric_data()) {
        if (!IsNullNumeric(v)) p.column_sketches_[c].Add(v);
      }
      const auto& data = col.numeric_data();
      p.rank2_[c] = internal::DoubledMidranks(data);
      if (options.histogram_bins > 0) {
        auto& hist = p.histograms_[c];
        hist.assign(options.histogram_bins, 0);
        const auto [lo, hi] = p.ranges_[c];
        const HistogramBinner binner =
            HistogramBinner::Make(lo, hi, options.histogram_bins);
        for (double v : data) {
          if (IsNullNumeric(v)) continue;
          ++hist[binner.BinOf(v)];
        }
      }
    } else {
      p.category_counts_[c] = CategoryCounts(col);
    }
  });

  // ---- Numeric-numeric pairs -------------------------------------------
  // All pair sketches are needed to fill the dependency matrix; only pairs
  // above the dependency floor are retained for per-query reuse. The
  // quadratic sketch fill parallelizes over tasks that each own their
  // pairs; candidate selection stays sequential to preserve the
  // deterministic tracked-pair order.
  struct Candidate {
    size_t a;
    size_t b;
    double dep;
    PairMomentSketch sketch;
  };
  const size_t k = numeric_cols.size();
  const size_t rows = table.num_rows();
  // Position of pair (i, j), i < j, of numeric_cols in npair_list.
  const auto pair_index = [k](size_t i, size_t j) {
    return i * (2 * k - i - 1) / 2 + (j - i - 1);
  };
  // NULL-free columns (positions in numeric_cols): a pair of two of them
  // adds every row, so its count and x/y sums are bitwise its columns'
  // sketches and only sum_xy needs the rows (Gram tiles below). Pairs
  // with a NULL-holding column keep the per-pair loop.
  std::vector<size_t> dense;
  std::vector<bool> is_dense(k, false);
  for (size_t i = 0; i < k; ++i) {
    const int64_t count = p.column_sketches_[numeric_cols[i]].count;
    if (static_cast<size_t>(count) == rows) {
      dense.push_back(i);
      is_dense[i] = true;
    }
  }
  std::vector<std::pair<size_t, size_t>> npair_list;
  std::vector<size_t> sparse_pairs;
  npair_list.reserve(k * (k + 1) / 2);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      if (!is_dense[i] || !is_dense[j]) {
        sparse_pairs.push_back(npair_list.size());
      }
      npair_list.emplace_back(numeric_cols[i], numeric_cols[j]);
    }
  }
  std::vector<PairMomentSketch> npair_sketches(npair_list.size());
  const size_t blocks = (dense.size() + kGramTile - 1) / kGramTile;
  std::vector<std::pair<size_t, size_t>> tiles;
  for (size_t bi = 0; bi < blocks; ++bi) {
    for (size_t bj = bi; bj < blocks; ++bj) tiles.emplace_back(bi, bj);
  }
  const std::vector<double> zeros(rows, 0.0);  // pads the edge tiles
  ParallelForEach(threads, tiles.size(), [&](size_t t) {
    const auto [bi, bj] = tiles[t];
    const auto column_of = [&](size_t d) {
      return d < dense.size()
                 ? table.column(numeric_cols[dense[d]]).numeric_data().data()
                 : zeros.data();
    };
    std::array<const double*, kGramTile> xs;
    std::array<const double*, kGramTile> ys;
    for (size_t u = 0; u < kGramTile; ++u) {
      xs[u] = column_of(bi * kGramTile + u);
      ys[u] = column_of(bj * kGramTile + u);
    }
    const GramBlock gram = GramTile(xs, ys, rows);
    for (size_t u = 0; u < kGramTile; ++u) {
      for (size_t v = 0; v < kGramTile; ++v) {
        const size_t di = bi * kGramTile + u;
        const size_t dj = bj * kGramTile + v;
        if (di >= dj || dj >= dense.size()) continue;
        const MomentSketch& sx = p.column_sketches_[numeric_cols[dense[di]]];
        const MomentSketch& sy = p.column_sketches_[numeric_cols[dense[dj]]];
        PairMomentSketch& s = npair_sketches[pair_index(dense[di], dense[dj])];
        s.count = sx.count;
        s.sum_x = sx.sum;
        s.sum_y = sy.sum;
        s.sum_xx = sx.sum_sq;
        s.sum_yy = sy.sum_sq;
        s.sum_xy = gram[u][v];
      }
    }
  });
  ParallelForEach(threads, sparse_pairs.size(), [&](size_t t) {
    const size_t idx = sparse_pairs[t];
    const auto& x = table.column(npair_list[idx].first).numeric_data();
    const auto& y = table.column(npair_list[idx].second).numeric_data();
    PairMomentSketch s;
    for (size_t r = 0; r < x.size(); ++r) {
      if (!IsNullNumeric(x[r]) && !IsNullNumeric(y[r])) s.Add(x[r], y[r]);
    }
    npair_sketches[idx] = s;
  });
  std::vector<Candidate> candidates;
  for (size_t idx = 0; idx < npair_list.size(); ++idx) {
    const PairMomentSketch& s = npair_sketches[idx];
    const double dep = std::fabs(s.Correlation());
    const auto [a, b] = npair_list[idx];
    p.dependency_[a * m + b] = dep;
    p.dependency_[b * m + a] = dep;
    if (dep >= options.pair_dependency_floor) {
      candidates.push_back({a, b, dep, s});
    }
  }
  if (candidates.size() > options.max_tracked_pairs) {
    std::nth_element(candidates.begin(),
                     candidates.begin() + static_cast<int64_t>(options.max_tracked_pairs),
                     candidates.end(),
                     [](const Candidate& a, const Candidate& b) { return a.dep > b.dep; });
    candidates.resize(options.max_tracked_pairs);
  }
  for (const Candidate& c : candidates) {
    const int64_t idx = static_cast<int64_t>(p.tracked_numeric_pairs_.size());
    p.numeric_pair_index_[c.a * m + c.b] = idx;
    p.numeric_pair_index_[c.b * m + c.a] = idx;
    p.tracked_numeric_pairs_.emplace_back(c.a, c.b);
    p.numeric_pair_sketches_.push_back(c.sketch);
  }

  // ---- Mixed (categorical, numeric) pairs --------------------------------
  // Same shape as the numeric pairs: flatten, fill in parallel, select
  // sequentially.
  std::vector<std::pair<size_t, size_t>> mpair_list;
  for (size_t cc : categorical_cols) {
    if (table.column(cc).cardinality() < 2) continue;
    for (size_t nc : numeric_cols) mpair_list.emplace_back(cc, nc);
  }
  std::vector<GroupedMoments> mpair_groups(mpair_list.size());
  std::vector<double> mpair_eta(mpair_list.size(), 0.0);
  ParallelForEach(threads, mpair_list.size(), [&](size_t idx) {
    const auto [cc, nc] = mpair_list[idx];
    const Column& cat = table.column(cc);
    const auto& x = table.column(nc).numeric_data();
    GroupedMoments& gm = mpair_groups[idx];
    gm.groups.assign(cat.cardinality(), MomentSketch{});
    for (size_t r = 0; r < x.size(); ++r) {
      const CategoryCode code = cat.codes()[r];
      if (code == kNullCategory || IsNullNumeric(x[r])) continue;
      gm.groups[static_cast<size_t>(code)].Add(x[r]);
    }
    mpair_eta[idx] = EtaFromGroupMoments(gm.groups);
  });
  for (size_t idx = 0; idx < mpair_list.size(); ++idx) {
    const double eta = mpair_eta[idx];
    if (eta < 0.0) continue;
    const auto [cc, nc] = mpair_list[idx];
    p.dependency_[cc * m + nc] = eta;
    p.dependency_[nc * m + cc] = eta;
    if (eta >= options.pair_dependency_floor &&
        p.tracked_mixed_pairs_.size() < options.max_tracked_pairs) {
      p.tracked_mixed_pairs_.emplace_back(cc, nc);
      p.mixed_pair_groups_.push_back(std::move(mpair_groups[idx]));
    }
  }

  // ---- Categorical-categorical pairs -------------------------------------
  std::vector<std::pair<size_t, size_t>> cpair_list;
  for (size_t i = 0; i < categorical_cols.size(); ++i) {
    if (table.column(categorical_cols[i]).cardinality() < 2) continue;
    for (size_t j = i + 1; j < categorical_cols.size(); ++j) {
      if (table.column(categorical_cols[j]).cardinality() < 2) continue;
      cpair_list.emplace_back(categorical_cols[i], categorical_cols[j]);
    }
  }
  std::vector<std::vector<int64_t>> cpair_tables(cpair_list.size());
  std::vector<double> cpair_v(cpair_list.size(), 0.0);
  ParallelForEach(threads, cpair_list.size(), [&](size_t idx) {
    const Column& a = table.column(cpair_list[idx].first);
    const Column& b = table.column(cpair_list[idx].second);
    const size_t ka = a.cardinality();
    const size_t kb = b.cardinality();
    std::vector<int64_t>& ct = cpair_tables[idx];
    ct.assign(ka * kb, 0);
    for (size_t r = 0; r < a.size(); ++r) {
      const CategoryCode cai = a.codes()[r];
      const CategoryCode cbi = b.codes()[r];
      if (cai == kNullCategory || cbi == kNullCategory) continue;
      ++ct[static_cast<size_t>(cai) * kb + static_cast<size_t>(cbi)];
    }
    cpair_v[idx] = CramersVFromTable(ct, ka, kb);
  });
  for (size_t idx = 0; idx < cpair_list.size(); ++idx) {
    const double v = cpair_v[idx];
    const auto [ca, cb] = cpair_list[idx];
    p.dependency_[ca * m + cb] = v;
    p.dependency_[cb * m + ca] = v;
    if (v >= options.pair_dependency_floor &&
        p.tracked_categorical_pairs_.size() < options.max_tracked_pairs) {
      p.tracked_categorical_pairs_.emplace_back(ca, cb);
      p.categorical_pair_tables_.push_back(std::move(cpair_tables[idx]));
    }
  }

  return p;
}

Result<ProfileAppendEffects> TableProfile::ApplyAppend(const Table& new_table,
                                                       size_t old_num_rows) {
  if (new_table.num_columns() != num_columns_) {
    return Status::InvalidArgument("appended table does not match profile column count");
  }
  const size_t new_rows = new_table.num_rows();
  if (new_rows < old_num_rows) {
    return Status::InvalidArgument("appended table has fewer rows than the profile");
  }
  ProfileAppendEffects fx;
  fx.rows_appended = new_rows - old_num_rows;
  const size_t m = num_columns_;

  // Pre-append categorical cardinalities: the shapes of count vectors and
  // contingency tables before the dictionary possibly grew.
  std::vector<size_t> old_cardinality(m, 0);
  for (size_t c = 0; c < m; ++c) {
    if (new_table.column(c).is_categorical()) {
      old_cardinality[c] = category_counts_[c].size();
    }
  }

  // ---- Column-level updates ----------------------------------------------
  for (size_t c = 0; c < m; ++c) {
    const Column& col = new_table.column(c);
    if (col.is_numeric()) {
      const auto& data = col.numeric_data();
      auto [lo, hi] = ranges_[c];
      bool had_values = column_sketches_[c].count > 0;
      bool extended = false;
      for (size_t r = old_num_rows; r < new_rows; ++r) {
        const double v = data[r];
        if (IsNullNumeric(v)) continue;
        column_sketches_[c].Add(v);
        if (!had_values) {
          lo = hi = v;
          had_values = true;
          extended = true;
        } else {
          if (v < lo) {
            lo = v;
            extended = true;
          }
          if (v > hi) {
            hi = v;
            extended = true;
          }
        }
      }
      if (extended) {
        ranges_[c] = {lo, hi};
        fx.ranges_extended = true;
      }
      ShiftMidranks(data, old_num_rows, &rank2_[c]);
      if (!histograms_[c].empty()) {
        auto& hist = histograms_[c];
        const auto [rlo, rhi] = ranges_[c];
        const HistogramBinner binner = HistogramBinner::Make(rlo, rhi, hist.size());
        if (extended) {
          // The bin edges moved: re-bin the whole column (this column
          // only; the rest of the profile stays incremental).
          hist.assign(hist.size(), 0);
          for (double v : data) {
            if (!IsNullNumeric(v)) ++hist[binner.BinOf(v)];
          }
          fx.rebinned_columns.push_back(c);
        } else {
          for (size_t r = old_num_rows; r < new_rows; ++r) {
            const double v = data[r];
            if (!IsNullNumeric(v)) ++hist[binner.BinOf(v)];
          }
        }
      }
    } else {
      if (col.cardinality() > category_counts_[c].size()) {
        category_counts_[c].resize(col.cardinality(), 0);
        fx.categories_added = true;
      }
      const auto& codes = col.codes();
      for (size_t r = old_num_rows; r < new_rows; ++r) {
        const CategoryCode code = codes[r];
        if (code != kNullCategory) ++category_counts_[c][static_cast<size_t>(code)];
      }
    }
  }

  // ---- Tracked pair updates ----------------------------------------------
  // Membership is frozen; statistics and the dependency entries of tracked
  // pairs are refreshed exactly from the updated sketches.
  for (size_t i = 0; i < tracked_numeric_pairs_.size(); ++i) {
    const auto [a, b] = tracked_numeric_pairs_[i];
    const auto& x = new_table.column(a).numeric_data();
    const auto& y = new_table.column(b).numeric_data();
    PairMomentSketch& s = numeric_pair_sketches_[i];
    for (size_t r = old_num_rows; r < new_rows; ++r) {
      if (!IsNullNumeric(x[r]) && !IsNullNumeric(y[r])) s.Add(x[r], y[r]);
    }
    const double dep = std::fabs(s.Correlation());
    dependency_[a * m + b] = dep;
    dependency_[b * m + a] = dep;
  }
  for (size_t i = 0; i < tracked_mixed_pairs_.size(); ++i) {
    const auto [cc, nc] = tracked_mixed_pairs_[i];
    const Column& cat = new_table.column(cc);
    const auto& x = new_table.column(nc).numeric_data();
    auto& groups = mixed_pair_groups_[i].groups;
    if (cat.cardinality() > groups.size()) {
      groups.resize(cat.cardinality());
      fx.categories_added = true;
    }
    for (size_t r = old_num_rows; r < new_rows; ++r) {
      const CategoryCode code = cat.codes()[r];
      if (code == kNullCategory || IsNullNumeric(x[r])) continue;
      groups[static_cast<size_t>(code)].Add(x[r]);
    }
    const double eta = EtaFromGroupMoments(groups);
    if (eta >= 0.0) {
      dependency_[cc * m + nc] = eta;
      dependency_[nc * m + cc] = eta;
    }
  }
  for (size_t i = 0; i < tracked_categorical_pairs_.size(); ++i) {
    const auto [ca, cb] = tracked_categorical_pairs_[i];
    const Column& a = new_table.column(ca);
    const Column& b = new_table.column(cb);
    const size_t new_ka = a.cardinality();
    const size_t new_kb = b.cardinality();
    const size_t old_ka = old_cardinality[ca];
    const size_t old_kb = old_cardinality[cb];
    auto& ct = categorical_pair_tables_[i];
    if (new_ka != old_ka || new_kb != old_kb) {
      // Re-stride the row-major table into the grown shape.
      std::vector<int64_t> grown(new_ka * new_kb, 0);
      for (size_t i0 = 0; i0 < old_ka; ++i0) {
        for (size_t j0 = 0; j0 < old_kb; ++j0) {
          grown[i0 * new_kb + j0] = ct[i0 * old_kb + j0];
        }
      }
      ct = std::move(grown);
    }
    for (size_t r = old_num_rows; r < new_rows; ++r) {
      const CategoryCode cai = a.codes()[r];
      const CategoryCode cbi = b.codes()[r];
      if (cai == kNullCategory || cbi == kNullCategory) continue;
      ++ct[static_cast<size_t>(cai) * new_kb + static_cast<size_t>(cbi)];
    }
    const double v = CramersVFromTable(ct, new_ka, new_kb);
    dependency_[ca * m + cb] = v;
    dependency_[cb * m + ca] = v;
  }

  num_rows_ = new_rows;
  return fx;
}

Status TableProfile::CheckShape(const Table& table) const {
  if (table.num_columns() != num_columns_) {
    return Status::InvalidArgument(
        "profile does not match table (column count)");
  }
  for (size_t c = 0; c < num_columns_; ++c) {
    const Column& column = table.column(c);
    if (column.is_numeric() && rank2_[c].size() != table.num_rows()) {
      return Status::InvalidArgument(
          "profile does not match table (rank array of column " +
          std::to_string(c) + " has " + std::to_string(rank2_[c].size()) +
          " rows, table has " + std::to_string(table.num_rows()) + ")");
    }
    if (column.is_categorical() &&
        category_counts_[c].size() != column.cardinality()) {
      return Status::InvalidArgument(
          "profile does not match table (column " + std::to_string(c) +
          " has " + std::to_string(category_counts_[c].size()) +
          " profiled categories, table has " +
          std::to_string(column.cardinality()) + ")");
    }
  }
  if (num_rows_ != kUnknownRows && num_rows_ != table.num_rows()) {
    return Status::InvalidArgument(
        "profile does not match table (profile has " +
        std::to_string(num_rows_) + " rows, table has " +
        std::to_string(table.num_rows()) + ")");
  }
  return Status::OK();
}

double TableProfile::Dependency(size_t a, size_t b) const {
  ZIGGY_DCHECK(a < num_columns_ && b < num_columns_);
  if (a == b) return 1.0;
  return dependency_[a * num_columns_ + b];
}

int64_t TableProfile::NumericPairIndex(size_t a, size_t b) const {
  ZIGGY_DCHECK(a < num_columns_ && b < num_columns_);
  return numeric_pair_index_[a * num_columns_ + b];
}

size_t TableProfile::MemoryUsageBytes() const {
  size_t bytes = 0;
  bytes += column_sketches_.capacity() * sizeof(MomentSketch);
  for (const auto& v : category_counts_) bytes += v.capacity() * sizeof(int64_t);
  for (const auto& v : rank2_) bytes += v.capacity() * sizeof(uint32_t);
  for (const auto& v : histograms_) bytes += v.capacity() * sizeof(int64_t);
  bytes += dependency_.capacity() * sizeof(double);
  bytes += numeric_pair_index_.capacity() * sizeof(int64_t);
  bytes += numeric_pair_sketches_.capacity() * sizeof(PairMomentSketch);
  for (const auto& g : mixed_pair_groups_) {
    bytes += g.groups.capacity() * sizeof(MomentSketch);
  }
  for (const auto& t : categorical_pair_tables_) bytes += t.capacity() * sizeof(int64_t);
  return bytes;
}

}  // namespace ziggy
