// Differential oracle for tree growth: DecisionTree::train_binned, which
// keeps one entry per distinct bootstrap row with its multiplicity and
// scans only occupied bins, against the growth it replaced
// (tests/reference/decision_tree.hpp), which walks every copy of a row.
//
// Contract: every forest serializes byte for byte as the reference
// forest, and every tree's feature importances are bitwise equal. Inputs
// are PV, #SR and SRT windows of the standard bank (576, 864 and 1,152
// rows; 16 and 48 trees; mtry at its default and at every feature), of
// the fleet-lite bank, and adversarial weighted samples: one row repeated
// n times, two distinct rows drawn twice each at min_samples_split 3 and
// 4 (where only the weighted n splits), max_depth 1 and 2, single-label
// windows, columns with exactly 255 and 256 distinct values, and all-NaN
// and constant columns. Training from column views and batch scoring from
// column views must match the Dataset paths too.
//
// Planted mutations this test catches (each in a throwaway copy of the
// tree code): a node n counted over distinct entries instead of
// weighted, an occupied bin's split code taken off by one (b + 1), the
// max_code bin left uncleared for the next feature, and candidate
// features drawn before the leaf check (a changed RNG draw order).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/dataset_builder.hpp"
#include "core/fleet_engine.hpp"
#include "datagen/kpi_presets.hpp"
#include "ml/binning.hpp"
#include "ml/decision_tree.hpp"
#include "ml/random_forest.hpp"
#include "ml/serialize.hpp"
#include "reference/decision_tree.hpp"
#include "util/rng.hpp"

namespace {

using namespace opprentice;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr std::size_t kWindows[] = {576, 864, 1152};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<std::string> feature_names(std::size_t n) {
  std::vector<std::string> names;
  for (std::size_t f = 0; f < n; ++f) {
    std::string name = "f";
    name += std::to_string(f);
    names.push_back(std::move(name));
  }
  return names;
}

std::string serialized(const ml::RandomForest& forest,
                       const std::vector<std::string>& names) {
  std::ostringstream out;
  ml::save_forest(out, forest, names);
  return out.str();
}

void expect_same_nodes(const std::vector<ml::TreeNode>& got,
                       const std::vector<ml::TreeNode>& want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].feature, want[i].feature) << where << " node " << i;
    ASSERT_EQ(bits(got[i].threshold), bits(want[i].threshold))
        << where << " node " << i;
    ASSERT_EQ(got[i].left, want[i].left) << where << " node " << i;
    ASSERT_EQ(got[i].right, want[i].right) << where << " node " << i;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i].anomaly_fraction),
              std::bit_cast<std::uint32_t>(want[i].anomaly_fraction))
        << where << " node " << i;
  }
}

void expect_same_importances(const std::vector<double>& got,
                             const std::vector<double>& want,
                             const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t f = 0; f < got.size(); ++f) {
    ASSERT_EQ(bits(got[f]), bits(want[f])) << where << " feature " << f;
  }
}

// The forest, its serialization, every tree's importances, the forest
// trained from column views, and batch scores from column views.
void expect_forest_matches_reference(const ml::Dataset& data,
                                     const ml::ForestOptions& options,
                                     const std::string& where) {
  ml::RandomForest forest(options);
  forest.train(data);
  const std::vector<reference::GrownTree> oracle =
      reference::train_forest(data, options);
  ASSERT_EQ(forest.tree_count(), oracle.size()) << where;

  std::vector<ml::DecisionTree> oracle_trees;
  for (std::size_t t = 0; t < oracle.size(); ++t) {
    const std::string tree_where = where + " tree " + std::to_string(t);
    expect_same_nodes(forest.trees()[t].nodes(), oracle[t].nodes, tree_where);
    expect_same_importances(forest.trees()[t].feature_importances(),
                            oracle[t].importances, tree_where);
    ml::DecisionTree tree;
    tree.adopt_nodes(oracle[t].nodes);
    oracle_trees.push_back(std::move(tree));
  }
  ml::RandomForest oracle_forest;
  oracle_forest.adopt_trees(std::move(oracle_trees), data.num_features());
  const std::string bytes = serialized(forest, data.feature_names());
  ASSERT_EQ(bytes, serialized(oracle_forest, data.feature_names())) << where;

  const auto views = ml::column_views(data.columns(), 0, data.num_rows());
  ml::RandomForest from_views(options);
  from_views.train_columns(views, data.labels());
  ASSERT_EQ(serialized(from_views, data.feature_names()), bytes) << where;

  const std::vector<double> batch = forest.score_all(data);
  ASSERT_EQ(batch.size(), data.num_rows()) << where;
  for (std::size_t i = 0; i < data.num_rows(); i += 7) {
    ASSERT_EQ(bits(batch[i]), bits(forest.score(data.row(i))))
        << where << " row " << i;
  }
}

core::ExperimentData preset_data(const datagen::KpiPreset& preset) {
  return core::prepare_experiment(
      datagen::generate_kpi(preset.model, preset.injection));
}

// Labeled windows after warm-up, as a weekly retrain sees them.
std::vector<std::pair<std::string, ml::Dataset>> windows_of(
    const ml::Dataset& full, std::size_t warmup) {
  std::vector<std::pair<std::string, ml::Dataset>> windows;
  for (std::size_t w : kWindows) {
    const std::size_t end = std::min(full.num_rows(), warmup + w);
    windows.emplace_back("rows" + std::to_string(end - warmup),
                         full.slice(warmup, end));
  }
  return windows;
}

void check_standard_bank(const datagen::KpiPreset& preset) {
  const core::ExperimentData data = preset_data(preset);
  for (const auto& [name, window] : windows_of(data.dataset, data.warmup)) {
    ASSERT_GT(window.positives(), 0u) << preset.model.name << " " << name;
    for (std::size_t trees : {std::size_t{16}, std::size_t{48}}) {
      for (std::size_t mtry : {std::size_t{0}, window.num_features()}) {
        ml::ForestOptions options;
        options.num_trees = trees;
        options.mtry = mtry;
        expect_forest_matches_reference(
            window, options,
            preset.model.name + " " + name + " trees " +
                std::to_string(trees) + " mtry " + std::to_string(mtry));
      }
    }
  }
}

TEST(TreeOracle, PvStandardBankForestsByteEqual) {
  check_standard_bank(datagen::pv_preset());
}

TEST(TreeOracle, SrStandardBankForestsByteEqual) {
  check_standard_bank(datagen::sr_preset());
}

TEST(TreeOracle, SrtStandardBankForestsByteEqual) {
  check_standard_bank(datagen::srt_preset());
}

TEST(TreeOracle, LiteBankForestsByteEqual) {
  for (const auto& preset : datagen::all_presets()) {
    const core::ExperimentData data = preset_data(preset);
    const detectors::SeriesContext ctx{data.series.points_per_day(),
                                       data.series.points_per_week()};
    const detectors::FeatureMatrix features = detectors::extract_features(
        data.series, core::fleet_lite_configurations(ctx));
    const ml::Dataset lite =
        core::build_dataset(features, data.operator_labels);
    for (const auto& [name, window] : windows_of(lite, features.max_warmup)) {
      for (std::size_t mtry : {std::size_t{0}, lite.num_features()}) {
        ml::ForestOptions options;
        options.num_trees = 16;
        options.mtry = mtry;
        expect_forest_matches_reference(
            window, options,
            preset.model.name + " lite " + name + " mtry " +
                std::to_string(mtry));
      }
    }
  }
}

// One tree grown from explicit multiplicities against the reference grown
// from the same rows written out copy by copy, in a shuffled order.
void expect_tree_matches_reference(const ml::Dataset& data,
                                   const std::vector<std::uint32_t>& counts,
                                   const ml::TreeOptions& options,
                                   const std::string& where) {
  const ml::BinnedDataset binned(data);
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < counts.size(); ++r) {
    rows.insert(rows.end(), counts[r], r);
  }
  util::Rng shuffle(options.seed ^ 0x5eedu);
  for (std::size_t k = rows.size(); k > 1; --k) {
    std::swap(rows[k - 1], rows[shuffle.uniform_int(k)]);
  }
  const reference::GrownTree oracle =
      reference::grow_tree(binned, options, rows);
  ml::DecisionTree tree(options);
  tree.train_binned(binned, counts);
  expect_same_nodes(tree.nodes(), oracle.nodes, where);
  expect_same_importances(tree.feature_importances(), oracle.importances,
                          where);
}

ml::Dataset make_dataset(std::vector<std::vector<double>> columns,
                         std::vector<std::uint8_t> labels) {
  const std::size_t nf = columns.size();
  return ml::Dataset(feature_names(nf), std::move(columns),
                     std::move(labels));
}

// Random columns (some tied, some with NaN) and labels, plus bootstrap
// counts drawn like the forest draws them.
ml::Dataset random_dataset(util::Rng& rng, std::size_t rows,
                           std::size_t features, double positive_rate) {
  std::vector<std::vector<double>> columns(features,
                                           std::vector<double>(rows));
  for (std::size_t f = 0; f < features; ++f) {
    const std::uint64_t levels = 2 + rng.uniform_int(400);
    for (double& v : columns[f]) {
      v = rng.uniform() < 0.05
              ? kNaN
              : static_cast<double>(rng.uniform_int(levels)) * 0.25;
    }
  }
  std::vector<std::uint8_t> labels(rows);
  for (auto& y : labels) y = rng.uniform() < positive_rate ? 1 : 0;
  return make_dataset(std::move(columns), std::move(labels));
}

std::vector<std::uint32_t> bootstrap_counts(util::Rng& rng, std::size_t rows) {
  std::vector<std::uint32_t> counts(rows, 0);
  for (std::size_t s = 0; s < rows; ++s) ++counts[rng.uniform_int(rows)];
  return counts;
}

TEST(TreeOracle, OneRowRepeatedIsOneLeaf) {
  util::Rng rng(3);
  const ml::Dataset data = random_dataset(rng, 40, 5, 0.5);
  for (std::uint32_t copies : {1u, 2u, 40u, 1000u}) {
    std::vector<std::uint32_t> counts(data.num_rows(), 0);
    counts[17] = copies;
    expect_tree_matches_reference(data, counts, {},
                                  "copies " + std::to_string(copies));
  }
  // A one-row dataset: every bootstrap draw is that row.
  const ml::Dataset one = make_dataset({{1.0}, {kNaN}}, {1});
  ml::ForestOptions options;
  options.num_trees = 8;
  expect_forest_matches_reference(one, options, "one-row dataset");
}

// Two distinct rows, each drawn twice: n is 4 only when weighted, so the
// root splits at min_samples_split 3 and 4 and stays a leaf at 5.
TEST(TreeOracle, TwoRowsTwiceSplitOnWeightedCount) {
  const ml::Dataset data = make_dataset({{1.0, 2.0, 3.0}}, {0, 1, 0});
  const std::vector<std::uint32_t> counts = {2, 2, 0};
  for (std::size_t min_split : {std::size_t{3}, std::size_t{4},
                                std::size_t{5}}) {
    ml::TreeOptions options;
    options.min_samples_split = min_split;
    expect_tree_matches_reference(data, counts, options,
                                  "min_split " + std::to_string(min_split));
    ml::DecisionTree tree(options);
    tree.train_binned(ml::BinnedDataset(data), counts);
    EXPECT_EQ(tree.node_count(), min_split <= 4 ? 3u : 1u) << min_split;
  }
}

TEST(TreeOracle, DepthLimitsAndFeatureSubsets) {
  util::Rng rng(11);
  const ml::Dataset data = random_dataset(rng, 600, 24, 0.2);
  for (std::size_t depth : {std::size_t{1}, std::size_t{2}, std::size_t{64}}) {
    for (std::size_t mtry : {std::size_t{1}, std::size_t{4}, std::size_t{0}}) {
      for (std::size_t min_split : {std::size_t{2}, std::size_t{7}}) {
        ml::TreeOptions options;
        options.max_depth = depth;
        options.mtry = mtry;
        options.min_samples_split = min_split;
        options.seed = 100 + depth + 7 * mtry + min_split;
        expect_tree_matches_reference(
            data, bootstrap_counts(rng, data.num_rows()), options,
            "depth " + std::to_string(depth) + " mtry " +
                std::to_string(mtry) + " min_split " +
                std::to_string(min_split));
      }
    }
  }
}

TEST(TreeOracle, SingleLabelWindowsAreOneLeaf) {
  util::Rng rng(5);
  for (double rate : {0.0, 1.0}) {
    const ml::Dataset data = random_dataset(rng, 300, 6, rate);
    expect_tree_matches_reference(data, bootstrap_counts(rng, 300), {},
                                  "rate " + std::to_string(rate));
    ml::ForestOptions options;
    options.num_trees = 4;
    expect_forest_matches_reference(data, options,
                                    "forest rate " + std::to_string(rate));
  }
}

// 255 distinct values fill codes 0..254 and 256 fill 0..254 with the top
// two values sharing code 254; both cross every 64-bin mask word.
TEST(TreeOracle, ColumnsWith255And256DistinctValues) {
  util::Rng rng(29);
  for (std::size_t distinct : {std::size_t{255}, std::size_t{256}}) {
    const std::size_t rows = 3 * distinct;
    std::vector<double> column(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      column[r] = static_cast<double>(r % distinct) - 100.0;
    }
    for (std::size_t k = rows; k > 1; --k) {
      std::swap(column[k - 1], column[rng.uniform_int(k)]);
    }
    std::vector<std::uint8_t> labels(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      labels[r] = (column[r] > 60.0 || rng.uniform() < 0.1) ? 1 : 0;
    }
    std::vector<double> reversed(column.rbegin(), column.rend());
    const ml::Dataset data =
        make_dataset({column, reversed}, std::move(labels));
    const std::string where = std::to_string(distinct) + " distinct";
    expect_tree_matches_reference(data, bootstrap_counts(rng, rows), {},
                                  where);
    ml::ForestOptions options;
    options.num_trees = 8;
    expect_forest_matches_reference(data, options, where + " forest");
  }
}

TEST(TreeOracle, AllNanAndConstantColumns) {
  util::Rng rng(41);
  const std::size_t rows = 200;
  std::vector<double> informative(rows);
  std::vector<std::uint8_t> labels(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    informative[r] = static_cast<double>(rng.uniform_int(50));
    labels[r] = informative[r] > 40.0 ? 1 : 0;
  }
  const std::vector<double> all_nan(rows, kNaN);
  const std::vector<double> constant(rows, 2.5);
  // Only uninformative columns: no split anywhere.
  expect_tree_matches_reference(make_dataset({all_nan, constant}, labels),
                                bootstrap_counts(rng, rows), {},
                                "nan+constant");
  // Mixed: the uninformative columns must never be chosen.
  const ml::Dataset mixed =
      make_dataset({all_nan, informative, constant}, labels);
  for (std::size_t mtry : {std::size_t{1}, std::size_t{0}}) {
    ml::TreeOptions options;
    options.mtry = mtry;
    expect_tree_matches_reference(mixed, bootstrap_counts(rng, rows), options,
                                  "mixed mtry " + std::to_string(mtry));
  }
  ml::ForestOptions options;
  options.num_trees = 8;
  options.mtry = 1;
  expect_forest_matches_reference(mixed, options, "mixed forest");
}

TEST(TreeOracle, SingleTreeTrainMatchesReference) {
  util::Rng rng(53);
  const ml::Dataset data = random_dataset(rng, 500, 12, 0.15);
  ml::DecisionTree tree;
  tree.train(data);
  std::vector<std::size_t> rows(data.num_rows());
  for (std::size_t r = 0; r < rows.size(); ++r) rows[r] = r;
  const reference::GrownTree oracle =
      reference::grow_tree(ml::BinnedDataset(data), {}, rows);
  expect_same_nodes(tree.nodes(), oracle.nodes, "train(Dataset)");
  expect_same_importances(tree.feature_importances(), oracle.importances,
                          "train(Dataset)");
}

TEST(TreeOracle, ScoreColumnsReadsWindowsInPlace) {
  util::Rng rng(61);
  const ml::Dataset data = random_dataset(rng, 400, 9, 0.2);
  ml::ForestOptions options;
  options.num_trees = 12;
  ml::RandomForest forest(options);
  forest.train(data);
  const std::size_t begin = 150;
  const ml::Dataset tail = data.slice(begin, data.num_rows());
  const auto views = ml::column_views(data.columns(), begin, data.num_rows());
  const std::vector<double> from_views =
      forest.score_columns(views, tail.num_rows());
  ASSERT_EQ(from_views.size(), tail.num_rows());
  for (std::size_t i = 0; i < tail.num_rows(); ++i) {
    ASSERT_EQ(bits(from_views[i]), bits(forest.score(tail.row(i)))) << i;
  }
}

}  // namespace
