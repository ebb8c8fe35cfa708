// Differential oracle for quantile binning: the one-sort ColumnBinner and
// BinnedDataset against the sort + lower_bound binner they replaced
// (tests/reference/binning.hpp).
//
// Contract: for every column and every max_bins, the bin count, every
// edge (bitwise, read through upper_edge) and every row's code are
// identical, and so is mutual information built on the bins. Inputs are
// standard-bank feature windows of the PV, #SR and SRT presets (576, 864
// and 1,152 rows at both ends of the series, and the full length with its
// warm-up rows) and adversarial columns: signed zeros, infinities,
// denormals, an overflowing midpoint, NaN-only, constant, two-valued,
// exactly 255 and 256 distinct values, and random bit patterns.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "core/dataset_builder.hpp"
#include "datagen/kpi_presets.hpp"
#include "ml/binning.hpp"
#include "ml/feature_selection.hpp"
#include "ml/mutual_information.hpp"
#include "reference/binning.hpp"
#include "util/rng.hpp"

namespace {

using namespace opprentice;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
constexpr double kMinNormal = std::numeric_limits<double>::min();
constexpr std::size_t kMaxBinsSweep[] = {2, 16, 255};
constexpr std::size_t kWindows[] = {576, 864, 1152};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Checks one column's edges and codes against the reference binner. Per
// value mismatches are counted, not asserted one by one, so a broken
// binner reports the first bad row instead of flooding the log.
void expect_same_bins(const ml::FeatureBinner& binner,
                      const std::vector<std::uint8_t>& codes,
                      std::span<const double> column, std::size_t max_bins,
                      const std::string& where) {
  const auto oracle = reference::FeatureBinner::fit(column, max_bins);
  ASSERT_EQ(binner.num_bins(), oracle.num_bins()) << where;
  for (std::size_t c = 0; c + 1 < oracle.num_bins(); ++c) {
    const auto code = static_cast<std::uint8_t>(c);
    ASSERT_EQ(bits(binner.upper_edge(code)), bits(oracle.upper_edge(code)))
        << where << " edge " << c;
  }
  ASSERT_EQ(codes.size(), column.size()) << where;
  std::size_t mismatches = 0;
  std::size_t first = column.size();
  for (std::size_t i = 0; i < column.size(); ++i) {
    if (codes[i] != oracle.bin_of(column[i])) {
      if (mismatches++ == 0) first = i;
    }
  }
  EXPECT_EQ(mismatches, 0u)
      << where << " first bad row " << first << " value "
      << (first < column.size() ? column[first] : 0.0);
}

void expect_same_bins(std::span<const double> column, std::size_t max_bins,
                      const std::string& where) {
  std::vector<std::uint8_t> codes(column.size(), 0xAB);
  const ml::FeatureBinner binner =
      ml::ColumnBinner().bin(column, codes, max_bins);
  expect_same_bins(binner, codes, column, max_bins, where);
}

core::ExperimentData preset_data(const datagen::KpiPreset& preset) {
  return core::prepare_experiment(
      datagen::generate_kpi(preset.model, preset.injection));
}

// Every column of every window, through both entry points: a ColumnBinner
// reused across columns at each max_bins, and BinnedDataset (the forest's
// path, one task per column) at its default.
void check_preset_windows(const datagen::KpiPreset& preset) {
  const core::ExperimentData data = preset_data(preset);
  const ml::Dataset& full = data.dataset;
  ASSERT_GE(full.num_rows(), data.warmup + kWindows[2]);

  std::vector<std::pair<std::string, ml::Dataset>> windows;
  for (std::size_t w : kWindows) {
    windows.emplace_back("head" + std::to_string(w),
                         full.slice(data.warmup, data.warmup + w));
    windows.emplace_back("tail" + std::to_string(w),
                         full.slice(full.num_rows() - w, full.num_rows()));
  }
  windows.emplace_back("full", full.slice(0, full.num_rows()));

  ml::ColumnBinner column_binner;
  for (const auto& [name, window] : windows) {
    const std::string where = preset.model.name + " " + name;
    for (std::size_t max_bins : kMaxBinsSweep) {
      std::vector<std::uint8_t> codes(window.num_rows());
      for (std::size_t f = 0; f < window.num_features(); ++f) {
        const ml::FeatureBinner binner =
            column_binner.bin(window.column(f), codes, max_bins);
        expect_same_bins(binner, codes, window.column(f), max_bins,
                         where + " max_bins " + std::to_string(max_bins) +
                             " " + window.feature_names()[f]);
      }
    }
    const ml::BinnedDataset binned(window);
    ASSERT_EQ(binned.num_features(), window.num_features());
    for (std::size_t f = 0; f < window.num_features(); ++f) {
      expect_same_bins(binned.binner(f), binned.codes(f), window.column(f),
                       ml::kMaxBins,
                       where + " BinnedDataset " + window.feature_names()[f]);
    }
  }
}

TEST(BinningOracle, PvPresetWindowsBitIdentical) {
  check_preset_windows(datagen::pv_preset());
}

TEST(BinningOracle, SrPresetWindowsBitIdentical) {
  check_preset_windows(datagen::sr_preset());
}

TEST(BinningOracle, SrtPresetWindowsBitIdentical) {
  check_preset_windows(datagen::srt_preset());
}

std::vector<std::pair<std::string, std::vector<double>>>
adversarial_columns() {
  std::vector<std::pair<std::string, std::vector<double>>> columns;
  columns.push_back({"signed_zeros",
                     {-0.0, 0.0, 1.0, -1.0, 0.0, -0.0, 2.0, -0.0, -2.0}});
  columns.push_back({"only_signed_zeros", {0.0, -0.0, -0.0, 0.0}});
  columns.push_back({"zero_between_denormals",
                     {-0.0, kDenormMin, 0.0, -kDenormMin, -0.0}});
  columns.push_back({"infinities", {-kInf, kInf, 0.0, 1.0, -1.0, kInf}});
  columns.push_back({"only_infinities", {kInf, -kInf, -kInf, kInf}});
  columns.push_back({"inf_and_finite", {kInf, kInf, 1.0, -kInf, 5.0}});
  columns.push_back({"denormals",
                     {kDenormMin, -kDenormMin, 2 * kDenormMin, kMinNormal,
                      -kMinNormal, kMinNormal / 2, -kMinNormal / 4, 0.0,
                      -3 * kDenormMin}});
  columns.push_back({"overflowing_midpoint",
                     {1.7e308, 1.79e308, 0.0, -1.7e308, -1.79e308, 1.0}});
  columns.push_back({"all_nan", std::vector<double>(50, kNaN)});
  columns.push_back({"nan_and_one_value", {kNaN, 3.0, kNaN, 3.0}});
  columns.push_back({"constant", std::vector<double>(100, 3.0)});
  columns.push_back({"two_values", {7.0, -7.0, 7.0, 7.0, kNaN, -7.0}});
  columns.push_back({"empty", {}});

  util::Rng rng(17);
  for (std::size_t distinct : {std::size_t{255}, std::size_t{256}}) {
    std::vector<double> xs;
    for (std::size_t k = 0; k < 3 * distinct; ++k) {
      xs.push_back(static_cast<double>(k % distinct) * 0.5 - 40.0);
    }
    for (std::size_t k = xs.size(); k > 1; --k) {
      std::swap(xs[k - 1], xs[rng.uniform_int(k)]);
    }
    columns.push_back({std::to_string(distinct) + "_distinct", xs});
  }
  {
    // Every sign, exponent and payload, NaNs included.
    std::vector<double> xs(5000);
    for (double& x : xs) x = std::bit_cast<double>(rng.next_u64());
    columns.push_back({"random_bit_patterns", xs});
  }
  {
    // Heavy ties and NaN gaps, more distinct values than bins.
    std::vector<double> xs(3000);
    for (double& x : xs) {
      x = rng.uniform() < 0.1 ? kNaN
                              : static_cast<double>(rng.uniform_int(600));
    }
    columns.push_back({"ties_and_nans", xs});
  }
  return columns;
}

TEST(BinningOracle, AdversarialColumnsBitIdentical) {
  for (const auto& [name, column] : adversarial_columns()) {
    for (std::size_t max_bins : kMaxBinsSweep) {
      expect_same_bins(column, max_bins,
                       name + " max_bins " + std::to_string(max_bins));
    }
  }
}

// Fig 10 ranks features by mutual information with the label and mRMR
// subtracts feature-feature MI: both must be bit-identical to MI over the
// reference bins, so no ranking can move.
TEST(BinningOracle, MutualInformationBitIdenticalOnPresets) {
  for (const auto& preset : datagen::all_presets()) {
    const core::ExperimentData data = preset_data(preset);
    const ml::Dataset train =
        data.dataset.slice(data.warmup, data.dataset.num_rows());
    const std::size_t nf = train.num_features();
    std::vector<double> reference_mi(nf);
    for (std::size_t f = 0; f < nf; ++f) {
      reference_mi[f] =
          reference::mutual_information(train.column(f), train.labels());
      ASSERT_EQ(bits(ml::mutual_information(train.column(f), train.labels())),
                bits(reference_mi[f]))
          << preset.model.name << " " << train.feature_names()[f];
      const std::size_t g = (f + 1) % nf;
      ASSERT_EQ(bits(ml::feature_mutual_information(train.column(f),
                                                    train.column(g))),
                bits(reference::feature_mutual_information(train.column(f),
                                                           train.column(g))))
          << preset.model.name << " " << train.feature_names()[f] << " x "
          << train.feature_names()[g];
    }
    std::vector<std::size_t> reference_order(nf);
    std::iota(reference_order.begin(), reference_order.end(), std::size_t{0});
    std::stable_sort(reference_order.begin(), reference_order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return reference_mi[a] > reference_mi[b];
                     });
    EXPECT_EQ(ml::rank_features_by_mutual_information(train), reference_order)
        << preset.model.name;
  }
}

}  // namespace
