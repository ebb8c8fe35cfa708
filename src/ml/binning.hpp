// Quantile binning for histogram-based tree training.
//
// Tree split finding only needs the *order* of feature values, so we
// quantize each column to at most 255 quantile bins once per training run
// (LightGBM-style). Split search then costs O(rows + bins) per feature per
// node instead of O(rows log rows), which keeps fully-grown forests cheap
// on the single-core evaluation host.
//
// Each column is binned with one sort: an LSD radix sort of (order key,
// row) pairs yields the column's distinct values, from which the edges
// are placed, and then every row's code in one linear walk (DESIGN.md §6).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ml/dataset.hpp"

namespace opprentice::ml {

inline constexpr std::size_t kMaxBins = 255;

// Per-feature quantile bin edges. A value v maps to the smallest bin b
// with v <= edges[b]; values above the last edge map to the last bin and
// NaN maps to bin 0.
class FeatureBinner {
 public:
  FeatureBinner() = default;
  explicit FeatureBinner(std::vector<double> edges)
      : edges_(std::move(edges)) {}

  // Real-valued threshold separating bin <= code from bin > code; used to
  // translate a bin split back into a raw-value split for prediction.
  double upper_edge(std::uint8_t code) const;

  std::size_t num_bins() const { return edges_.size() + 1; }

 private:
  std::vector<double> edges_;  // ascending, distinct
};

// Bins columns one at a time. Its sort buffers live across calls, so one
// ColumnBinner reused over many columns allocates only for the first.
class ColumnBinner {
 public:
  // Places at most `max_bins` quantile bins over the distinct non-NaN
  // values of `column` and writes every value's code to `codes`
  // (codes.size() == column.size(); NaN gets code 0).
  FeatureBinner bin(std::span<const double> column,
                    std::span<std::uint8_t> codes,
                    std::size_t max_bins = kMaxBins);

 private:
  struct Entry {
    std::uint64_t key;  // order-preserving bits of the value
    std::uint32_t row;  // a column holds fewer than 2^32 rows
  };

  void radix_sort();

  std::vector<Entry> entries_;
  std::vector<Entry> swap_;
  std::vector<double> distinct_;
};

// A dataset quantized for tree training. Keeps a reference-free copy of
// the labels and the code matrix.
class BinnedDataset {
 public:
  explicit BinnedDataset(const Dataset& data,
                         std::size_t max_bins = kMaxBins);
  // Bins columns held elsewhere (every column labels.size() long), the
  // same as a Dataset holding those values.
  BinnedDataset(ColumnSpans columns, std::span<const std::uint8_t> labels,
                std::size_t max_bins = kMaxBins);

  std::size_t num_rows() const { return labels_.size(); }
  std::size_t num_features() const { return codes_.size(); }

  const std::vector<std::uint8_t>& codes(std::size_t feature) const {
    return codes_[feature];
  }
  std::uint8_t label(std::size_t row) const { return labels_[row]; }
  const FeatureBinner& binner(std::size_t feature) const {
    return binners_[feature];
  }

 private:
  std::vector<FeatureBinner> binners_;
  std::vector<std::vector<std::uint8_t>> codes_;  // [feature][row]
  std::vector<std::uint8_t> labels_;
};

}  // namespace opprentice::ml
