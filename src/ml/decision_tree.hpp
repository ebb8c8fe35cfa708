// CART decision tree (§4.4.2 "Preliminaries: decision trees").
//
// Gini-impurity splits, grown fully by default (the paper's random forest
// grows trees without pruning). Split finding runs on a BinnedDataset;
// the learned splits are translated back to raw-value thresholds so a
// trained tree scores unbinned feature vectors directly.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ml/binning.hpp"
#include "ml/dataset.hpp"
#include "util/rng.hpp"

namespace opprentice::ml {

struct TreeOptions {
  std::size_t max_depth = 64;         // effectively unlimited ("fully grown")
  std::size_t min_samples_split = 2;
  std::size_t mtry = 0;               // features tried per node; 0 = all
  std::uint64_t seed = 1;
};

struct TreeNode {
  std::int32_t feature = -1;  // -1 marks a leaf
  double threshold = 0.0;     // go left when value <= threshold
  std::int32_t left = -1;
  std::int32_t right = -1;
  float anomaly_fraction = 0.0f;  // positive-class fraction at this node
};

class DecisionTree final : public BinaryClassifier {
 public:
  explicit DecisionTree(TreeOptions options = {});

  std::string name() const override { return "decision_tree"; }

  // Bins the dataset internally and grows the tree on all rows.
  void train(const Dataset& data) override;

  // Grows the tree on a weighted sample of an already-binned dataset:
  // row r counts multiplicity[r] times, as a bootstrap that drew it that
  // often (the random forest trains its trees through this entry point).
  // multiplicity.size() == data.num_rows(); the total must be positive
  // and below 2^32.
  void train_binned(const BinnedDataset& data,
                    std::span<const std::uint32_t> multiplicity);

  bool is_trained() const override { return !nodes_.empty(); }

  // Leaf anomaly fraction of the feature vector.
  double score(std::span<const double> features) const override;

  // score() of row `row` of column-major `columns`, read in place.
  double score_row(ColumnSpans columns, std::size_t row) const;

  // Majority-class vote (the forest aggregates these).
  bool vote(std::span<const double> features) const {
    return score(features) >= 0.5;
  }

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t depth() const;

  // Total gini gain contributed by each feature (unnormalized).
  const std::vector<double>& feature_importances() const {
    return importances_;
  }

  // Human-readable if-then rules down to `max_print_depth` (Fig 5 prints a
  // compacted tree); `feature_names` supplies the detector names.
  std::string print_rules(const std::vector<std::string>& feature_names,
                          std::size_t max_print_depth = 3) const;

  const std::vector<TreeNode>& nodes() const { return nodes_; }

  // Installs a deserialized node array (see ml/serialize.hpp). The nodes
  // must form a valid tree rooted at index 0.
  void adopt_nodes(std::vector<TreeNode> nodes) { nodes_ = std::move(nodes); }

 private:
  TreeOptions options_;
  std::vector<TreeNode> nodes_;
  std::vector<double> importances_;
  util::Rng rng_;
};

}  // namespace opprentice::ml
