#include "ml/mutual_information.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "ml/binning.hpp"

namespace opprentice::ml {

double mutual_information(std::span<const double> feature,
                          const std::vector<std::uint8_t>& labels,
                          std::size_t bins) {
  const std::size_t n = std::min(feature.size(), labels.size());
  if (n == 0) return 0.0;

  std::vector<std::uint8_t> codes(feature.size());
  const FeatureBinner binner = ColumnBinner().bin(feature, codes, bins);
  // joint[b][c]: count of (bin b, class c).
  std::vector<std::array<double, 2>> joint(binner.num_bins(), {0.0, 0.0});
  double class_total[2] = {0.0, 0.0};
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(feature[i])) continue;
    const std::uint8_t b = codes[i];
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

std::vector<std::size_t> rank_features_by_mutual_information(
    const Dataset& data, std::size_t bins) {
  std::vector<double> mi(data.num_features());
  for (std::size_t f = 0; f < data.num_features(); ++f) {
    mi[f] = mutual_information(data.column(f), data.labels(), bins);
  }
  std::vector<std::size_t> order(data.num_features());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return mi[a] > mi[b]; });
  return order;
}

}  // namespace opprentice::ml
