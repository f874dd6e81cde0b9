#include "zig/component_builder.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "common/logging.h"
#include "stats/effect_size.h"
#include "stats/tests.h"
#include "storage/types.h"

namespace ziggy {

namespace {

NumericStats StatsFromSketch(const MomentSketch& s, double min_v = 0.0,
                             double max_v = 0.0) {
  NumericStats ns;
  ns.count = s.count;
  ns.mean = s.Mean();
  ns.m2 = s.Variance() * std::max<double>(0.0, static_cast<double>(s.count) - 1.0);
  ns.min = min_v;
  ns.max = max_v;
  return ns;
}

// Correlation ratio eta from per-group sketches.
double EtaFromGroups(std::span<const MomentSketch> groups) {
  MomentSketch total;
  for (const auto& g : groups) total.Merge(g);
  if (total.count < 2) return 0.0;
  const double grand_mean = total.Mean();
  double ss_between = 0.0;
  for (const auto& g : groups) {
    if (g.count <= 0) continue;
    const double d = g.Mean() - grand_mean;
    ss_between += static_cast<double>(g.count) * d * d;
  }
  const double n = static_cast<double>(total.count);
  const double ss_total = std::max(0.0, total.sum_sq - total.sum * total.sum / n);
  if (ss_total <= 0.0) return 0.0;
  return std::sqrt(std::clamp(ss_between / ss_total, 0.0, 1.0));
}

// Cramér's V of a rows x cols contingency table; `margins` is scratch for
// rows + cols sums.
double CramersVFromTable(std::span<const int64_t> table, size_t rows,
                         size_t cols, int64_t* margins, int64_t* total_out) {
  int64_t* row_sum = margins;
  int64_t* col_sum = margins + rows;
  std::fill(margins, margins + rows + cols, 0);
  int64_t n = 0;
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      const int64_t v = table[i * cols + j];
      row_sum[i] += v;
      col_sum[j] += v;
      n += v;
    }
  }
  *total_out = n;
  if (n == 0 || rows < 2 || cols < 2) return 0.0;
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

// Total variation distance between the distributions of two count
// vectors of equal length with totals n_p and n_q, and the first index
// where the p share most exceeds the q share. This is NormalizeCounts(.,
// 0.0) and TotalVariationDistance fused, so that no vector is built: a
// share is c / total (NormalizeCounts' (c + 0.0) / (total + 0.0 * size),
// since x + 0.0 == x for every non-negative count), all zeros when the
// total is 0, and the |p - q| terms are summed in index order. Both values
// are therefore bit-identical to the vector form.
struct CountShift {
  double tv = 0.0;
  size_t top = 0;
};

CountShift ShiftOfCounts(std::span<const int64_t> p_counts, int64_t n_p,
                         std::span<const int64_t> q_counts, int64_t n_q) {
  ZIGGY_DCHECK(p_counts.size() == q_counts.size());
  const auto share = [](int64_t c, int64_t total) {
    return total > 0 ? static_cast<double>(c) / static_cast<double>(total)
                     : 0.0;
  };
  CountShift out;
  double sum = 0.0;
  double best_gain = -1.0;
  for (size_t i = 0; i < p_counts.size(); ++i) {
    const double gain = share(p_counts[i], n_p) - share(q_counts[i], n_q);
    sum += std::fabs(gain);
    if (gain > best_gain) {
      best_gain = gain;
      out.top = i;
    }
  }
  out.tv = 0.5 * sum;
  return out;
}

int64_t Total(std::span<const int64_t> counts) {
  int64_t total = 0;
  for (const int64_t c : counts) total += c;
  return total;
}

// Upper bound of the component count: four unary kinds per numeric
// column, one per categorical column, one per tracked pair.
size_t MaxComponents(const Table& table, const TableProfile& profile) {
  size_t bound = profile.tracked_numeric_pairs().size() +
                 profile.tracked_mixed_pairs().size() +
                 profile.tracked_categorical_pairs().size();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    bound += table.column(c).is_numeric() ? 4 : 1;
  }
  return bound;
}

}  // namespace

MannWhitneyCounts MannWhitneyFromRankSum(int64_t rank2_sum, int64_t n_in,
                                         int64_t n_out) {
  const int64_t u2 = rank2_sum - n_in * (n_in + 1);
  return {0.5 * static_cast<double>(u2), n_in, n_out};
}

Result<ComponentTable> BuildComponentsFromSketches(
    const Table& table, const TableProfile& profile, const Selection& selection,
    const SelectionSketches& inside, const SelectionSketches& outside,
    const ComponentBuildOptions& options) {
  ZIGGY_RETURN_NOT_OK(ValidateCharacterizationInput(table, profile, selection));
  ComponentTable out;
  out.Reserve(MaxComponents(table, profile));
  const size_t inside_n = selection.Count();
  out.set_counts(static_cast<int64_t>(inside_n),
                 static_cast<int64_t>(table.num_rows() - inside_n));
  const int64_t kMin = options.min_side_rows;

  // ---- Unary components ---------------------------------------------------
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    if (col.is_numeric()) {
      const auto [lo, hi] = profile.ColumnRange(c);
      NumericStats in_s = StatsFromSketch(inside.column_sketch(c), lo, hi);
      NumericStats out_s = StatsFromSketch(outside.column_sketch(c), lo, hi);
      if (in_s.count < kMin || out_s.count < kMin) continue;

      ZigComponent mean_c;
      mean_c.kind = ComponentKind::kMeanShift;
      mean_c.col_a = c;
      mean_c.effect = StandardizedMeanDifference(in_s, out_s);
      mean_c.inside_value = in_s.mean;
      mean_c.outside_value = out_s.mean;
      mean_c.inside_n = in_s.count;
      mean_c.outside_n = out_s.count;
      mean_c.test = WelchTStatistic(in_s, out_s);
      out.Add(std::move(mean_c));

      ZigComponent disp_c;
      disp_c.kind = ComponentKind::kDispersionShift;
      disp_c.col_a = c;
      disp_c.effect = LogStdDevRatio(in_s, out_s);
      disp_c.inside_value = in_s.StdDev();
      disp_c.outside_value = out_s.StdDev();
      disp_c.inside_n = in_s.count;
      disp_c.outside_n = out_s.count;
      disp_c.test = VarianceFStatistic(in_s, out_s);
      out.Add(std::move(disp_c));

      // U from the inside's exact rank sum; the outside's non-NULL count
      // is the column's minus the inside's.
      const int64_t non_null = profile.ColumnSketch(c).count;
      const auto [u, rn_in, rn_out] = MannWhitneyFromRankSum(
          inside.rank_sum(c), in_s.count, non_null - in_s.count);
      if (rn_in >= kMin && rn_out >= kMin) {
        ZigComponent rank_c;
        rank_c.kind = ComponentKind::kRankShift;
        rank_c.col_a = c;
        rank_c.effect = CliffsDelta(u, rn_in, rn_out);
        // Probability of superiority P(inside > outside) and complement.
        rank_c.inside_value =
            u / (static_cast<double>(rn_in) * static_cast<double>(rn_out));
        rank_c.outside_value = 1.0 - rank_c.inside_value;
        rank_c.inside_n = rn_in;
        rank_c.outside_n = rn_out;
        out.Add(std::move(rank_c));
      }

      if (!inside.histogram(c).empty()) {
        const std::span<const int64_t> in_h = inside.histogram(c);
        const std::span<const int64_t> out_h = outside.histogram(c);
        const int64_t hn_in = Total(in_h);
        const int64_t hn_out = Total(out_h);
        if (hn_in >= kMin && hn_out >= kMin) {
          ZigComponent dist_c;
          dist_c.kind = ComponentKind::kDistributionShift;
          dist_c.col_a = c;
          const CountShift shift = ShiftOfCounts(in_h, hn_in, out_h, hn_out);
          dist_c.effect =
              DistributionShift(shift.tv, in_h.size(), hn_in, hn_out);
          dist_c.inside_value = shift.tv;
          dist_c.outside_value = 0.0;
          dist_c.inside_n = hn_in;
          dist_c.outside_n = hn_out;
          dist_c.test = ChiSquareHomogeneityStatistic(in_h, out_h);
          // Most over-represented bin, as a value range, for explanations.
          const double width = (hi - lo) / static_cast<double>(in_h.size());
          dist_c.top_bin_lo = lo + width * static_cast<double>(shift.top);
          dist_c.top_bin_hi = lo + width * static_cast<double>(shift.top + 1);
          out.Add(std::move(dist_c));
        }
      }
    } else {
      const std::span<const int64_t> in_counts = inside.category_counts(c);
      const std::span<const int64_t> out_counts = outside.category_counts(c);
      const int64_t n_in = Total(in_counts);
      const int64_t n_out = Total(out_counts);
      if (n_in < kMin || n_out < kMin) continue;

      ZigComponent freq_c;
      freq_c.kind = ComponentKind::kFrequencyShift;
      freq_c.col_a = c;
      freq_c.effect = FrequencyShift(in_counts, out_counts);
      const CountShift shift =
          ShiftOfCounts(in_counts, n_in, out_counts, n_out);
      freq_c.inside_value = shift.tv;
      freq_c.outside_value = 0.0;
      freq_c.inside_n = n_in;
      freq_c.outside_n = n_out;
      // Guard the dictionary lookup: with an empty distribution the top
      // index never advanced, and a count vector longer than the
      // dictionary (never expected, but cheap to rule out) must not read
      // past it.
      if (!in_counts.empty() && shift.top < col.dictionary().size()) {
        freq_c.top_category = col.dictionary()[shift.top];
      }
      freq_c.test = ChiSquareHomogeneityStatistic(in_counts, out_counts);
      out.Add(std::move(freq_c));
    }
  }

  // ---- Numeric pair components -------------------------------------------
  const auto& npairs = profile.tracked_numeric_pairs();
  for (size_t i = 0; i < npairs.size(); ++i) {
    const PairMomentSketch& in_s = inside.numeric_pair_sketch(i);
    const PairMomentSketch& out_s = outside.numeric_pair_sketch(i);
    if (in_s.count < std::max<int64_t>(kMin, 4) ||
        out_s.count < std::max<int64_t>(kMin, 4)) {
      continue;
    }
    ZigComponent c;
    c.kind = ComponentKind::kCorrelationShift;
    c.col_a = npairs[i].first;
    c.col_b = npairs[i].second;
    c.inside_value = in_s.Correlation();
    c.outside_value = out_s.Correlation();
    c.inside_n = in_s.count;
    c.outside_n = out_s.count;
    c.effect =
        CorrelationDifference(c.inside_value, in_s.count, c.outside_value, out_s.count);
    out.Add(std::move(c));
  }

  // ---- Mixed pair components ----------------------------------------------
  const auto& mpairs = profile.tracked_mixed_pairs();
  for (size_t i = 0; i < mpairs.size(); ++i) {
    MomentSketch in_total;
    MomentSketch out_total;
    for (const auto& g : inside.mixed_pair_groups(i)) in_total.Merge(g);
    for (const auto& g : outside.mixed_pair_groups(i)) out_total.Merge(g);
    if (in_total.count < std::max<int64_t>(kMin, 4) ||
        out_total.count < std::max<int64_t>(kMin, 4)) {
      continue;
    }
    ZigComponent c;
    c.kind = ComponentKind::kAssociationShift;
    c.col_a = mpairs[i].first;
    c.col_b = mpairs[i].second;
    c.inside_value = EtaFromGroups(inside.mixed_pair_groups(i));
    c.outside_value = EtaFromGroups(outside.mixed_pair_groups(i));
    c.inside_n = in_total.count;
    c.outside_n = out_total.count;
    // Eta is treated through the Fisher transform like a correlation; this
    // is the standard asymptotic approximation for correlation-ratio
    // differences (documented divergence from an exact test).
    c.effect = CorrelationDifference(c.inside_value, in_total.count, c.outside_value,
                                     out_total.count);
    out.Add(std::move(c));
  }

  // ---- Categorical pair components ----------------------------------------
  const auto& cpairs = profile.tracked_categorical_pairs();
  size_t max_margins = 0;
  for (const auto& [a, b] : cpairs) {
    max_margins = std::max(max_margins, table.column(a).cardinality() +
                                            table.column(b).cardinality());
  }
  std::vector<int64_t> margins(max_margins);
  for (size_t i = 0; i < cpairs.size(); ++i) {
    const size_t ka = table.column(cpairs[i].first).cardinality();
    const size_t kb = table.column(cpairs[i].second).cardinality();
    int64_t n_in = 0;
    int64_t n_out = 0;
    const double v_in = CramersVFromTable(inside.categorical_pair_table(i), ka,
                                          kb, margins.data(), &n_in);
    const double v_out = CramersVFromTable(outside.categorical_pair_table(i),
                                           ka, kb, margins.data(), &n_out);
    if (n_in < std::max<int64_t>(kMin, 4) || n_out < std::max<int64_t>(kMin, 4)) {
      continue;
    }
    ZigComponent c;
    c.kind = ComponentKind::kContingencyShift;
    c.col_a = cpairs[i].first;
    c.col_b = cpairs[i].second;
    c.inside_value = v_in;
    c.outside_value = v_out;
    c.inside_n = n_in;
    c.outside_n = n_out;
    c.effect = CorrelationDifference(v_in, n_in, v_out, n_out);
    out.Add(std::move(c));
  }

  out.FinalizeScales();
  return out;
}

Status ValidateCharacterizationInput(const Table& table, const TableProfile& profile,
                                     const Selection& selection) {
  if (selection.num_rows() != table.num_rows()) {
    return Status::InvalidArgument("selection size does not match table row count");
  }
  ZIGGY_RETURN_NOT_OK(profile.CheckShape(table));
  const size_t inside_n = selection.Count();
  if (inside_n == 0) {
    return Status::FailedPrecondition(
        "the query selects no tuples; nothing to characterize");
  }
  if (inside_n == table.num_rows()) {
    return Status::FailedPrecondition(
        "the query selects every tuple; there is no complement to compare against");
  }
  return Status::OK();
}

Result<ComponentTable> BuildComponents(const Table& table, const TableProfile& profile,
                                       const Selection& selection,
                                       const ComponentBuildOptions& options) {
  ZIGGY_RETURN_NOT_OK(ValidateCharacterizationInput(table, profile, selection));

  SelectionSketches inside =
      SelectionSketches::Build(table, profile, selection, options.num_threads);

  SelectionSketches outside;
  outside.InitShapes(table, profile);
  outside.DeriveAsComplement(profile, inside);
  return BuildComponentsFromSketches(table, profile, selection, inside, outside,
                                     options);
}

}  // namespace ziggy
