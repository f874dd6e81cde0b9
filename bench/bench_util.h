// Shared helpers for Ziggy's benchmark harnesses: aligned table printing,
// wall-clock timing, planted-view recovery metrics, and machine-readable
// JSON reports written through JsonWriter (the perf trajectory consumed
// by CI across changes).

#ifndef ZIGGY_BENCH_BENCH_UTIL_H_
#define ZIGGY_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "engine/json.h"
#include "engine/ziggy_engine.h"

namespace ziggy {
namespace bench {

/// Milliseconds spent running `fn` once.
inline double TimeMs(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Simple aligned-column table writer for paper-style result rows.
class ResultTable {
 public:
  explicit ResultTable(std::vector<std::string> header) {
    rows_.push_back(std::move(header));
  }

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print(std::ostream& os = std::cout) const {
    std::vector<size_t> widths;
    for (const auto& row : rows_) {
      if (widths.size() < row.size()) widths.resize(row.size(), 0);
      for (size_t i = 0; i < row.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    }
    for (size_t r = 0; r < rows_.size(); ++r) {
      for (size_t i = 0; i < rows_[r].size(); ++i) {
        os << rows_[r][i] << std::string(widths[i] - rows_[r][i].size() + 2, ' ');
      }
      os << "\n";
      if (r == 0) {
        size_t total = 0;
        for (size_t w : widths) total += w + 2;
        os << std::string(total, '-') << "\n";
      }
    }
  }

 private:
  std::vector<std::vector<std::string>> rows_;
};

/// Fraction of planted views recovered in `found` (a view is recovered when
/// some output view contains at least half of its columns).
inline double RecoveryRate(const std::vector<std::vector<size_t>>& planted,
                           const std::vector<CharacterizedView>& found) {
  if (planted.empty()) return 1.0;
  size_t recovered = 0;
  for (const auto& gt : planted) {
    for (const auto& cv : found) {
      size_t overlap = 0;
      for (size_t c : gt) {
        if (std::find(cv.view.columns.begin(), cv.view.columns.end(), c) !=
            cv.view.columns.end()) {
          ++overlap;
        }
      }
      if (2 * overlap >= gt.size()) {
        ++recovered;
        break;
      }
    }
  }
  return static_cast<double>(recovered) / static_cast<double>(planted.size());
}

/// Fraction of planted views covered by plain column sets (for baselines).
inline double RecoveryRateColumns(const std::vector<std::vector<size_t>>& planted,
                                  const std::vector<std::vector<size_t>>& found) {
  if (planted.empty()) return 1.0;
  size_t recovered = 0;
  for (const auto& gt : planted) {
    for (const auto& cols : found) {
      size_t overlap = 0;
      for (size_t c : gt) {
        if (std::find(cols.begin(), cols.end(), c) != cols.end()) ++overlap;
      }
      if (2 * overlap >= gt.size()) {
        ++recovered;
        break;
      }
    }
  }
  return static_cast<double>(recovered) / static_cast<double>(planted.size());
}

inline std::string Fmt(double v, int digits = 3) { return FormatDouble(v, digits); }

// ------------------------------------------------------------ JSON report --

/// Significant digits of every double in a bench report: full round-trip
/// precision, because the reports track perf regressions across changes
/// and shorter output would round them away.
inline constexpr int kReportDigits = std::numeric_limits<double>::max_digits10;

/// Writes a report (one line of JSON) to `path`; returns false (with a
/// stderr note) on IO failure.
inline bool WriteReport(const std::string& path, const JsonWriter& report) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write bench report to " << path << "\n";
    return false;
  }
  out << report.str() << "\n";
  return out.good();
}

/// Parses the conventional bench CLI: `--json <path>` enables the JSON
/// report; returns the default path when the flag is given without a value.
inline std::string JsonPathFromArgs(int argc, char** argv,
                                    const std::string& default_path) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      if (i + 1 < argc && argv[i + 1][0] != '-') return argv[i + 1];
      return default_path;
    }
  }
  return "";
}

// ------------------------------------------- accumulation kernel A/B --

/// Faithful replica of the *seed* row-at-a-time accumulation (the
/// pre-columnar engine): per-cell column dispatch through table.column(),
/// per-cell range lookup with HistogramBinOf's divisions, per-row loops
/// over the tracked pair lists. Kept here, not in the library, so the
/// benchmarks always compare against the historical baseline even as the
/// library's own row path improves.
class SeedRowAtATimeSketches {
 public:
  void InitShapes(const Table& table, const TableProfile& profile) {
    const size_t m = table.num_columns();
    column_sketches_.assign(m, MomentSketch{});
    category_counts_.assign(m, {});
    histograms_.assign(m, {});
    for (size_t c = 0; c < m; ++c) {
      const Column& col = table.column(c);
      if (col.is_categorical()) {
        category_counts_[c].assign(col.cardinality(), 0);
      } else if (!profile.HistogramCountsOf(c).empty()) {
        histograms_[c].assign(profile.HistogramCountsOf(c).size(), 0);
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
  }

  void AddRow(const Table& table, const TableProfile& profile, size_t r) {
    const size_t m = table.num_columns();
    for (size_t c = 0; c < m; ++c) {
      const Column& col = table.column(c);
      if (col.is_numeric()) {
        const double v = col.numeric_data()[r];
        if (IsNullNumeric(v)) continue;
        column_sketches_[c].Add(v);
        if (!histograms_[c].empty()) {
          const auto [lo, hi] = profile.ColumnRange(c);
          ++histograms_[c][HistogramBinOf(v, lo, hi, histograms_[c].size())];
        }
      } else {
        const CategoryCode code = col.codes()[r];
        if (code != kNullCategory) {
          ++category_counts_[c][static_cast<size_t>(code)];
        }
      }
    }
    const auto& npairs = profile.tracked_numeric_pairs();
    for (size_t i = 0; i < npairs.size(); ++i) {
      const double x = table.column(npairs[i].first).numeric_data()[r];
      const double y = table.column(npairs[i].second).numeric_data()[r];
      if (IsNullNumeric(x) || IsNullNumeric(y)) continue;
      numeric_pair_sketches_[i].Add(x, y);
    }
    const auto& mpairs = profile.tracked_mixed_pairs();
    for (size_t i = 0; i < mpairs.size(); ++i) {
      const CategoryCode code = table.column(mpairs[i].first).codes()[r];
      const double x = table.column(mpairs[i].second).numeric_data()[r];
      if (code == kNullCategory || IsNullNumeric(x)) continue;
      mixed_pair_groups_[i][static_cast<size_t>(code)].Add(x);
    }
    const auto& cpairs = profile.tracked_categorical_pairs();
    for (size_t i = 0; i < cpairs.size(); ++i) {
      const CategoryCode ca = table.column(cpairs[i].first).codes()[r];
      const CategoryCode cb = table.column(cpairs[i].second).codes()[r];
      if (ca == kNullCategory || cb == kNullCategory) continue;
      const size_t kb = table.column(cpairs[i].second).cardinality();
      ++categorical_pair_tables_[i][static_cast<size_t>(ca) * kb +
                                    static_cast<size_t>(cb)];
    }
  }

  /// Checksum over a few fields so the optimizer cannot elide the work.
  double Checksum() const {
    double acc = 0.0;
    for (const auto& s : column_sketches_) acc += s.sum;
    for (const auto& s : numeric_pair_sketches_) acc += s.sum_xy;
    return acc;
  }

 private:
  std::vector<MomentSketch> column_sketches_;
  std::vector<std::vector<int64_t>> category_counts_;
  std::vector<PairMomentSketch> numeric_pair_sketches_;
  std::vector<std::vector<MomentSketch>> mixed_pair_groups_;
  std::vector<std::vector<int64_t>> categorical_pair_tables_;
  std::vector<std::vector<int64_t>> histograms_;
};

/// Timings of the sketch-accumulation kernel over one selection: the seed
/// row-at-a-time path vs. the columnar blocked scan, sequential and
/// threaded. rows/sec figures count *table* rows (the scan visits the
/// bitmap for every row regardless of density).
struct AccumulationAB {
  double row_at_a_time_ms = 0.0;
  double columnar_ms = 0.0;
  double threaded2_ms = 0.0;
  double threaded4_ms = 0.0;

  double Speedup() const {
    return columnar_ms > 0.0 ? row_at_a_time_ms / columnar_ms : 0.0;
  }
};

/// Best-of-`reps` timing of both accumulation paths on one selection.
inline AccumulationAB MeasureAccumulation(const Table& table,
                                          const TableProfile& profile,
                                          const Selection& selection,
                                          int reps = 3) {
  AccumulationAB ab;
  auto best = [&](const std::function<void()>& fn) {
    double best_ms = 1e18;
    for (int i = 0; i < reps; ++i) best_ms = std::min(best_ms, TimeMs(fn));
    return best_ms;
  };
  volatile double sink = 0.0;
  ab.row_at_a_time_ms = best([&] {
    SeedRowAtATimeSketches s;
    s.InitShapes(table, profile);
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (selection.Contains(r)) s.AddRow(table, profile, r);
    }
    sink = sink + s.Checksum();
  });
  ab.columnar_ms = best([&] {
    sink = sink + SelectionSketches::Build(table, profile, selection, 1)
                      .column_sketch(0)
                      .sum;
  });
  ab.threaded2_ms = best([&] {
    sink = sink + SelectionSketches::Build(table, profile, selection, 2)
                      .column_sketch(0)
                      .sum;
  });
  ab.threaded4_ms = best([&] {
    sink = sink + SelectionSketches::Build(table, profile, selection, 4)
                      .column_sketch(0)
                      .sum;
  });
  return ab;
}

/// Table rows scanned per second for a phase costing `ms`.
inline double RowsPerSec(size_t rows, double ms) {
  return ms > 0.0 ? static_cast<double>(rows) / (ms / 1000.0) : 0.0;
}

/// Writes `ab` as fields of the report object being written: the four
/// timings, both paths' rows/sec over `rows` table rows, and the speedup.
inline void WriteAccumulation(const AccumulationAB& ab, size_t rows,
                              JsonWriter* w) {
  w->Key("row_at_a_time_ms").Double(ab.row_at_a_time_ms, kReportDigits);
  w->Key("columnar_ms").Double(ab.columnar_ms, kReportDigits);
  w->Key("threaded2_ms").Double(ab.threaded2_ms, kReportDigits);
  w->Key("threaded4_ms").Double(ab.threaded4_ms, kReportDigits);
  w->Key("row_at_a_time_rows_per_sec");
  w->Double(RowsPerSec(rows, ab.row_at_a_time_ms), kReportDigits);
  w->Key("columnar_rows_per_sec");
  w->Double(RowsPerSec(rows, ab.columnar_ms), kReportDigits);
  w->Key("single_thread_speedup").Double(ab.Speedup(), kReportDigits);
}

}  // namespace bench
}  // namespace ziggy

#endif  // ZIGGY_BENCH_BENCH_UTIL_H_
