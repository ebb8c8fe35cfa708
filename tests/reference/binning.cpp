#include "reference/binning.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

namespace opprentice::reference {

FeatureBinner FeatureBinner::fit(std::span<const double> column,
                                 std::size_t max_bins) {
  FeatureBinner binner;
  std::vector<double> sorted;
  sorted.reserve(column.size());
  for (double v : column) {
    if (!std::isnan(v)) sorted.push_back(v);
  }
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  if (sorted.size() <= 1) return binner;  // constant column: single bin

  const std::size_t candidate_edges =
      std::min(max_bins - 1, sorted.size() - 1);
  binner.edges_.reserve(candidate_edges);
  // Edges at evenly spaced quantiles of the distinct values; midpoints
  // between neighbours make the split threshold unambiguous.
  for (std::size_t e = 1; e <= candidate_edges; ++e) {
    const std::size_t idx =
        e * (sorted.size() - 1) / (candidate_edges + 1) + 1;
    const double edge = (sorted[idx - 1] + sorted[idx]) / 2.0;
    if (binner.edges_.empty() || edge > binner.edges_.back()) {
      binner.edges_.push_back(edge);
    }
  }
  return binner;
}

std::uint8_t FeatureBinner::bin_of(double value) const {
  if (std::isnan(value)) return 0;  // missing severities sort lowest
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), value);
  return static_cast<std::uint8_t>(it - edges_.begin());
}

double FeatureBinner::upper_edge(std::uint8_t code) const {
  if (edges_.empty()) return std::numeric_limits<double>::infinity();
  const std::size_t idx = std::min<std::size_t>(code, edges_.size() - 1);
  return edges_[idx];
}

double mutual_information(std::span<const double> feature,
                          const std::vector<std::uint8_t>& labels,
                          std::size_t bins) {
  const std::size_t n = std::min(feature.size(), labels.size());
  if (n == 0) return 0.0;

  const FeatureBinner binner = FeatureBinner::fit(feature, bins);
  // joint[b][c]: count of (bin b, class c).
  std::vector<std::array<double, 2>> joint(binner.num_bins(), {0.0, 0.0});
  double class_total[2] = {0.0, 0.0};
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(feature[i])) continue;
    const std::uint8_t b = binner.bin_of(feature[i]);
    const std::size_t c = labels[i] != 0 ? 1 : 0;
    joint[b][c] += 1.0;
    class_total[c] += 1.0;
    total += 1.0;
  }
  if (total == 0.0) return 0.0;

  double mi = 0.0;
  for (const auto& cell : joint) {
    const double bin_total = cell[0] + cell[1];
    if (bin_total == 0.0) continue;
    for (std::size_t c = 0; c < 2; ++c) {
      if (cell[c] == 0.0 || class_total[c] == 0.0) continue;
      const double p_joint = cell[c] / total;
      const double p_bin = bin_total / total;
      const double p_class = class_total[c] / total;
      mi += p_joint * std::log(p_joint / (p_bin * p_class));
    }
  }
  return std::max(mi, 0.0);
}

double feature_mutual_information(std::span<const double> a,
                                  std::span<const double> b,
                                  std::size_t bins) {
  const std::size_t n = std::min(a.size(), b.size());
  if (n == 0) return 0.0;
  const FeatureBinner binner_a = FeatureBinner::fit(a, bins);
  const FeatureBinner binner_b = FeatureBinner::fit(b, bins);
  const std::size_t na = binner_a.num_bins();
  const std::size_t nb = binner_b.num_bins();

  std::vector<double> joint(na * nb, 0.0);
  std::vector<double> marg_a(na, 0.0), marg_b(nb, 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(a[i]) || std::isnan(b[i])) continue;
    const std::size_t ba = binner_a.bin_of(a[i]);
    const std::size_t bb = binner_b.bin_of(b[i]);
    joint[ba * nb + bb] += 1.0;
    marg_a[ba] += 1.0;
    marg_b[bb] += 1.0;
    total += 1.0;
  }
  if (total == 0.0) return 0.0;

  double mi = 0.0;
  for (std::size_t ba = 0; ba < na; ++ba) {
    if (marg_a[ba] == 0.0) continue;
    for (std::size_t bb = 0; bb < nb; ++bb) {
      const double j = joint[ba * nb + bb];
      if (j == 0.0 || marg_b[bb] == 0.0) continue;
      const double p_joint = j / total;
      mi += p_joint *
            std::log(p_joint * total * total / (marg_a[ba] * marg_b[bb]));
    }
  }
  return std::max(mi, 0.0);
}

}  // namespace opprentice::reference
