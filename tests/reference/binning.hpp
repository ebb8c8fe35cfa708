// Reference oracle: quantile binning as it ran before the one-sort path
// (src/ml/binning.hpp). fit sorts each column and places edges at
// quantiles of its distinct values; bin_of is a lower_bound per value.
// The mutual-information estimators that were built on them are kept too,
// so the production MI can be checked bit for bit
// (tests/binning_oracle_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace opprentice::reference {

// Per-feature quantile bin edges. A value v maps to the smallest bin b
// with v <= edges[b]; values above the last edge map to the last bin.
class FeatureBinner {
 public:
  // Builds edges from the column's value distribution.
  static FeatureBinner fit(std::span<const double> column,
                           std::size_t max_bins = 255);

  std::uint8_t bin_of(double value) const;

  // Real-valued threshold separating bin <= code from bin > code.
  double upper_edge(std::uint8_t code) const;

  std::size_t num_bins() const { return edges_.size() + 1; }

 private:
  std::vector<double> edges_;  // ascending, distinct
};

// MI(feature; label) in nats over FeatureBinner bins.
double mutual_information(std::span<const double> feature,
                          const std::vector<std::uint8_t>& labels,
                          std::size_t bins = 32);

// MI between two features over FeatureBinner bins.
double feature_mutual_information(std::span<const double> a,
                                  std::span<const double> b,
                                  std::size_t bins = 16);

}  // namespace opprentice::reference
