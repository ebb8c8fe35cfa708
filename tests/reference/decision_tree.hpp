// Reference oracle: CART growth and the forest train as they ran before
// multiplicity grouping (src/ml/decision_tree.cpp). grow_tree walks every
// bootstrap copy of a row, for every candidate feature, at every node,
// and scans all 256 bins; train_forest draws the same per-tree seeds and
// bootstrap rows as ml::RandomForest::train and grows each tree with it.
// tests/tree_oracle_test.cpp checks the production forests byte for byte.
#pragma once

#include <cstddef>
#include <vector>

#include "ml/binning.hpp"
#include "ml/dataset.hpp"
#include "ml/decision_tree.hpp"
#include "ml/random_forest.hpp"

namespace opprentice::reference {

struct GrownTree {
  std::vector<ml::TreeNode> nodes;
  std::vector<double> importances;  // unnormalized gini gain per feature
};

// Grows one tree on `rows` of `data` (repeats allowed: a bootstrap).
GrownTree grow_tree(const ml::BinnedDataset& data,
                    const ml::TreeOptions& options,
                    std::vector<std::size_t> rows);

// Every tree of the forest ml::RandomForest(options).train(data) grows.
std::vector<GrownTree> train_forest(const ml::Dataset& data,
                                    const ml::ForestOptions& options);

}  // namespace opprentice::reference
