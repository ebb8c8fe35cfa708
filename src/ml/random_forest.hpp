// Random forest (§4.4.2), the learning algorithm Opprentice deploys.
//
// An ensemble of fully grown CART trees; each tree trains on a bootstrap
// sample of the rows and evaluates only a random subset of features per
// node. The anomaly probability of a point is the fraction of trees that
// vote "anomaly" ("if 40 trees out of 100 classify the point into an
// anomaly, its anomaly probability is 40%"); the cThld applied to this
// probability is configured separately (§4.5).
#pragma once

#include <cstdint>
#include <vector>

#include "ml/decision_tree.hpp"
#include "util/hotpath.hpp"

namespace opprentice::ml {

struct ForestOptions {
  std::size_t num_trees = 48;
  std::size_t max_depth = 64;
  std::size_t min_samples_split = 2;
  // Features tried per node; 0 = floor(sqrt(num_features)).
  std::size_t mtry = 0;
  // Bootstrap sample size as a fraction of the training rows.
  double sample_fraction = 1.0;
  std::uint64_t seed = 42;
};

class RandomForest final : public BinaryClassifier {
 public:
  explicit RandomForest(ForestOptions options = {});

  std::string name() const override { return "random_forest"; }

  void train(const Dataset& data) override;
  // Trains on columns held elsewhere (every column labels.size() long),
  // without copying them; the same forest train() grows from a Dataset
  // holding those values.
  void train_columns(ColumnSpans columns,
                     std::span<const std::uint8_t> labels);
  bool is_trained() const override { return !trees_.empty(); }

  // Fraction of trees voting anomaly, in [0, 1].
  OPPRENTICE_HOT double score(std::span<const double> features) const override;

  // Batch scoring, parallel over rows on the global thread pool. Votes
  // reduce per row in fixed tree order; results match serial score()
  // bit-for-bit at any thread count.
  std::vector<double> score_all(const Dataset& data) const override;
  // score_all over `num_rows` rows of columns held elsewhere, read in
  // place (no per-row copy).
  std::vector<double> score_columns(ColumnSpans columns,
                                    std::size_t num_rows) const;

  // score >= cthld; 0.5 is the default majority vote.
  OPPRENTICE_HOT bool classify(std::span<const double> features,
                               double cthld = 0.5) const;

  std::size_t tree_count() const { return trees_.size(); }
  const std::vector<DecisionTree>& trees() const { return trees_; }

  // Mean per-tree gini importance, normalized to sum to 1. Shows which
  // detector configurations the forest actually relies on.
  std::vector<double> feature_importances() const;

  // Installs deserialized trees (see ml/serialize.hpp).
  void adopt_trees(std::vector<DecisionTree> trees,
                   std::size_t num_features) {
    trees_ = std::move(trees);
    trained_features_ = num_features;
  }

 private:
  ForestOptions options_;
  std::vector<DecisionTree> trees_;
  std::size_t trained_features_ = 0;
};

}  // namespace opprentice::ml
