#include "ml/binning.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace opprentice::ml {
namespace {

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
constexpr std::size_t kDigits = sizeof(std::uint64_t);

// Unsigned key whose order is the numeric order of non-NaN doubles. Adding
// +0.0 folds -0 into +0, so equal values get equal keys.
std::uint64_t order_key(double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value + 0.0);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

double key_value(std::uint64_t key) {
  return std::bit_cast<double>((key & kSignBit) != 0 ? key ^ kSignBit
                                                     : ~key);
}

std::size_t digit(std::uint64_t key, std::size_t d) {
  return static_cast<std::size_t>((key >> (8 * d)) & 0xff);
}

}  // namespace

double FeatureBinner::upper_edge(std::uint8_t code) const {
  if (edges_.empty()) return std::numeric_limits<double>::infinity();
  const std::size_t idx = std::min<std::size_t>(code, edges_.size() - 1);
  return edges_[idx];
}

// LSD radix sort of entries_ by key, 8 bits a pass. All eight digit
// histograms come from one read; a pass whose digit is the same for every
// key (usually the sign and exponent bytes) is skipped.
void ColumnBinner::radix_sort() {
  const std::size_t n = entries_.size();
  std::array<std::array<std::size_t, 256>, kDigits> counts{};
  for (const Entry& e : entries_) {
    for (std::size_t d = 0; d < kDigits; ++d) ++counts[d][digit(e.key, d)];
  }
  swap_.resize(n);
  for (std::size_t d = 0; d < kDigits; ++d) {
    auto& count = counts[d];
    if (count[digit(entries_.front().key, d)] == n) continue;
    std::size_t offset = 0;
    for (auto& c : count) {
      const std::size_t k = c;
      c = offset;
      offset += k;
    }
    for (const Entry& e : entries_) swap_[count[digit(e.key, d)]++] = e;
    entries_.swap(swap_);
  }
}

FeatureBinner ColumnBinner::bin(std::span<const double> column,
                                std::span<std::uint8_t> codes,
                                std::size_t max_bins) {
  if (column.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("ColumnBinner::bin: more than 2^32 rows");
  }
  std::fill(codes.begin(), codes.end(), std::uint8_t{0});
  entries_.clear();
  entries_.reserve(column.size());
  for (std::size_t row = 0; row < column.size(); ++row) {
    if (!std::isnan(column[row])) {
      entries_.push_back(
          {order_key(column[row]), static_cast<std::uint32_t>(row)});
    }
  }
  if (entries_.empty()) return FeatureBinner{};
  radix_sort();

  // The distinct values are the runs of equal keys.
  distinct_.clear();
  std::uint64_t previous = ~entries_.front().key;
  for (const Entry& e : entries_) {
    if (e.key != previous) distinct_.push_back(key_value(e.key));
    previous = e.key;
  }
  if (distinct_.size() <= 1) return FeatureBinner{};  // single bin

  const std::size_t candidate_edges =
      std::min(max_bins - 1, distinct_.size() - 1);
  std::vector<double> edges;
  edges.reserve(candidate_edges);
  // Edges at evenly spaced quantiles of the distinct values; midpoints
  // between neighbours make the split threshold unambiguous.
  for (std::size_t e = 1; e <= candidate_edges; ++e) {
    const std::size_t idx =
        e * (distinct_.size() - 1) / (candidate_edges + 1) + 1;
    const double edge = (distinct_[idx - 1] + distinct_[idx]) / 2.0;
    if (edges.empty() || edge > edges.back()) edges.push_back(edge);
  }

  // Walking the values in ascending order, the smallest bin b with
  // v <= edges[b] only moves up: one pass assigns every code.
  std::size_t b = 0;
  for (const Entry& e : entries_) {
    const double v = key_value(e.key);
    while (b < edges.size() && edges[b] < v) ++b;
    codes[e.row] = static_cast<std::uint8_t>(b);
  }
  return FeatureBinner(std::move(edges));
}

BinnedDataset::BinnedDataset(const Dataset& data, std::size_t max_bins)
    : BinnedDataset(column_views(data.columns(), 0, data.num_rows()),
                    data.labels(), max_bins) {}

BinnedDataset::BinnedDataset(ColumnSpans columns,
                             std::span<const std::uint8_t> labels,
                             std::size_t max_bins)
    : binners_(columns.size()),
      codes_(columns.size(), std::vector<std::uint8_t>(labels.size())),
      labels_(labels.begin(), labels.end()) {
  for (const auto& column : columns) {
    if (column.size() != labels.size()) {
      throw std::invalid_argument("BinnedDataset: column/labels size mismatch");
    }
  }
  // A block of columns per task, binned with one ColumnBinner so its sort
  // buffers are allocated once per block; each column writes only its own
  // binner and codes.
  constexpr std::size_t kColumnsPerTask = 8;
  const std::size_t tasks =
      (columns.size() + kColumnsPerTask - 1) / kColumnsPerTask;
  util::parallel_for(tasks, [&](std::size_t task) {
    ColumnBinner column_binner;
    const std::size_t end =
        std::min(columns.size(), (task + 1) * kColumnsPerTask);
    for (std::size_t f = task * kColumnsPerTask; f < end; ++f) {
      binners_[f] = column_binner.bin(columns[f], codes_[f], max_bins);
    }
  });
}

}  // namespace opprentice::ml
