#include "stats/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "storage/types.h"

namespace ziggy {

Histogram::Histogram(double lo, double hi, size_t num_bins)
    : lo_(lo), hi_(hi), counts_(num_bins == 0 ? 1 : num_bins, 0) {
  ZIGGY_CHECK(hi >= lo);
  width_ = (hi_ - lo_) / static_cast<double>(counts_.size());
  if (width_ <= 0.0) width_ = 1.0;  // degenerate range: everything in bin 0
}

void Histogram::Add(double x) {
  if (IsNullNumeric(x)) return;
  double offset = (x - lo_) / width_;
  int64_t bin = static_cast<int64_t>(std::floor(offset));
  bin = std::clamp<int64_t>(bin, 0, static_cast<int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<size_t>(bin)];
  ++total_;
}

double Histogram::Mass(size_t i) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_[i]) / static_cast<double>(total_);
}

std::vector<double> Histogram::SmoothedMasses(double alpha) const {
  std::vector<double> out(counts_.size());
  const double denom =
      static_cast<double>(total_) + alpha * static_cast<double>(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    out[i] = (static_cast<double>(counts_[i]) + alpha) / denom;
  }
  return out;
}

Histogram BuildHistogram(const std::vector<double>& data, size_t num_bins) {
  double lo = 0.0;
  double hi = 0.0;
  bool first = true;
  for (double v : data) {
    if (IsNullNumeric(v)) continue;
    if (first) {
      lo = hi = v;
      first = false;
    } else {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  Histogram h(lo, hi, num_bins);
  for (double v : data) h.Add(v);
  return h;
}

Histogram BuildAlignedHistogram(const std::vector<double>& data,
                                const Selection& selection, double lo, double hi,
                                size_t num_bins) {
  ZIGGY_CHECK(selection.num_rows() == data.size());
  Histogram h(lo, hi, num_bins);
  for (size_t i = 0; i < data.size(); ++i) {
    if (selection.Contains(i)) h.Add(data[i]);
  }
  return h;
}

std::vector<int64_t> CategoryCounts(const Column& column) {
  ZIGGY_CHECK(column.is_categorical());
  std::vector<int64_t> counts(column.cardinality(), 0);
  for (CategoryCode c : column.codes()) {
    if (c != kNullCategory) ++counts[static_cast<size_t>(c)];
  }
  return counts;
}

std::vector<int64_t> CategoryCounts(const Column& column, const Selection& selection) {
  ZIGGY_CHECK(column.is_categorical());
  ZIGGY_CHECK(selection.num_rows() == column.size());
  std::vector<int64_t> counts(column.cardinality(), 0);
  const auto& codes = column.codes();
  for (size_t i = 0; i < codes.size(); ++i) {
    if (selection.Contains(i) && codes[i] != kNullCategory) {
      ++counts[static_cast<size_t>(codes[i])];
    }
  }
  return counts;
}

std::vector<double> NormalizeCounts(std::span<const int64_t> counts,
                                    double alpha) {
  std::vector<double> out(counts.size());
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  const double denom =
      static_cast<double>(total) + alpha * static_cast<double>(counts.size());
  if (denom <= 0.0) return out;
  for (size_t i = 0; i < counts.size(); ++i) {
    out[i] = (static_cast<double>(counts[i]) + alpha) / denom;
  }
  return out;
}

double TotalVariationDistance(const std::vector<double>& p,
                              const std::vector<double>& q) {
  ZIGGY_CHECK(p.size() == q.size());
  double sum = 0.0;
  for (size_t i = 0; i < p.size(); ++i) sum += std::fabs(p[i] - q[i]);
  return 0.5 * sum;
}

double KlDivergence(const std::vector<double>& p, const std::vector<double>& q) {
  ZIGGY_CHECK(p.size() == q.size());
  double sum = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    if (p[i] <= 0.0) continue;
    ZIGGY_CHECK(q[i] > 0.0);
    sum += p[i] * std::log(p[i] / q[i]);
  }
  return std::max(0.0, sum);
}

}  // namespace ziggy
