// Histograms and frequency tables: the binned representations behind
// Ziggy's categorical Zig-Components and the divergence baselines.

#ifndef ZIGGY_STATS_HISTOGRAM_H_
#define ZIGGY_STATS_HISTOGRAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "storage/column.h"
#include "storage/selection.h"

namespace ziggy {

/// \brief Equi-width histogram over a fixed [lo, hi] range.
class Histogram {
 public:
  /// Creates an empty histogram with `num_bins` equal bins over [lo, hi].
  Histogram(double lo, double hi, size_t num_bins);

  /// Adds an observation; values outside [lo, hi] are clamped into the
  /// boundary bins, NaNs are skipped.
  void Add(double x);

  size_t num_bins() const { return counts_.size(); }
  int64_t total() const { return total_; }
  int64_t bin_count(size_t i) const { return counts_[i]; }

  /// Probability mass of bin i (0 if the histogram is empty).
  double Mass(size_t i) const;

  /// Laplace-smoothed probability vector (adds `alpha` to every bin).
  std::vector<double> SmoothedMasses(double alpha = 0.5) const;

  double lo() const { return lo_; }
  double hi() const { return hi_; }

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<int64_t> counts_;
  int64_t total_ = 0;
};

/// \brief Builds a histogram over all non-null values of a numeric vector.
Histogram BuildHistogram(const std::vector<double>& data, size_t num_bins);

/// \brief Builds a histogram over a selection, using the *global* [lo, hi]
/// range so that inside/outside histograms are bin-aligned.
Histogram BuildAlignedHistogram(const std::vector<double>& data,
                                const Selection& selection, double lo, double hi,
                                size_t num_bins);

/// \brief Per-category counts of a categorical column (NULLs excluded).
/// Index c holds the count of dictionary code c.
std::vector<int64_t> CategoryCounts(const Column& column);

/// \brief Per-category counts restricted to a selection.
std::vector<int64_t> CategoryCounts(const Column& column, const Selection& selection);

/// \brief Normalizes counts to a probability vector with Laplace smoothing.
std::vector<double> NormalizeCounts(std::span<const int64_t> counts,
                                    double alpha = 0.5);

/// \brief Total variation distance between two probability vectors of equal
/// length: 0.5 * sum |p_i - q_i|.
double TotalVariationDistance(const std::vector<double>& p,
                              const std::vector<double>& q);

/// \brief KL divergence KL(p || q) for strictly positive q.
double KlDivergence(const std::vector<double>& p, const std::vector<double>& q);

}  // namespace ziggy

#endif  // ZIGGY_STATS_HISTOGRAM_H_
