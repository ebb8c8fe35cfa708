#include "reference/decision_tree.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stack>
#include <stdexcept>

#include "util/rng.hpp"

namespace opprentice::reference {
namespace {

constexpr std::size_t kNumBins = 256;

struct SplitCandidate {
  double gain = 0.0;
  std::size_t feature = 0;
  std::uint8_t code = 0;       // go left when bin <= code
  std::size_t left_count = 0;
  bool valid = false;
};

double gini(double pos, double total) {
  if (total <= 0.0) return 0.0;
  const double p = pos / total;
  return 2.0 * p * (1.0 - p);  // 1 - p^2 - (1-p)^2
}

}  // namespace

GrownTree grow_tree(const ml::BinnedDataset& data,
                    const ml::TreeOptions& options,
                    std::vector<std::size_t> rows) {
  if (rows.empty()) {
    throw std::invalid_argument("reference::grow_tree: no rows");
  }
  util::Rng rng(options.seed);
  GrownTree out;
  std::vector<ml::TreeNode>& nodes = out.nodes;
  out.importances.assign(data.num_features(), 0.0);

  const std::size_t num_features = data.num_features();
  const std::size_t mtry =
      options.mtry == 0 ? num_features
                        : std::min(options.mtry, num_features);

  struct WorkItem {
    std::int32_t node;
    std::size_t begin;
    std::size_t end;
    std::size_t depth;
  };

  // Root.
  nodes.push_back(ml::TreeNode{});
  std::stack<WorkItem> work;
  work.push({0, 0, rows.size(), 0});

  std::array<std::uint32_t, kNumBins> hist_total{};
  std::array<std::uint32_t, kNumBins> hist_pos{};

  while (!work.empty()) {
    const WorkItem item = work.top();
    work.pop();
    const std::size_t n = item.end - item.begin;

    std::size_t positives = 0;
    for (std::size_t i = item.begin; i < item.end; ++i) {
      positives += data.label(rows[i]);
    }
    ml::TreeNode& node = nodes[static_cast<std::size_t>(item.node)];
    node.anomaly_fraction =
        static_cast<float>(positives) / static_cast<float>(n);

    const bool pure = positives == 0 || positives == n;
    if (pure || n < options.min_samples_split ||
        item.depth >= options.max_depth) {
      continue;  // leaf
    }

    // Random feature subset.
    std::vector<std::size_t> candidates =
        mtry == num_features
            ? [&] {
                std::vector<std::size_t> all(num_features);
                std::iota(all.begin(), all.end(), std::size_t{0});
                return all;
              }()
            : rng.sample_without_replacement(num_features, mtry);

    const double parent_gini =
        gini(static_cast<double>(positives), static_cast<double>(n));
    SplitCandidate best;

    for (std::size_t f : candidates) {
      const auto& codes = data.codes(f);
      hist_total.fill(0);
      hist_pos.fill(0);
      std::uint8_t max_code = 0;
      for (std::size_t i = item.begin; i < item.end; ++i) {
        const std::size_t r = rows[i];
        const std::uint8_t c = codes[r];
        ++hist_total[c];
        hist_pos[c] += data.label(r);
        max_code = std::max(max_code, c);
      }
      // Prefix scan over bins: candidate split after each occupied bin.
      double left_total = 0.0, left_pos = 0.0;
      for (std::size_t b = 0; b < max_code; ++b) {
        left_total += hist_total[b];
        left_pos += hist_pos[b];
        if (left_total == 0.0) continue;
        const double right_total = static_cast<double>(n) - left_total;
        if (right_total == 0.0) break;
        const double right_pos = static_cast<double>(positives) - left_pos;
        const double weighted =
            (left_total * gini(left_pos, left_total) +
             right_total * gini(right_pos, right_total)) /
            static_cast<double>(n);
        const double gain = parent_gini - weighted;
        if (gain > best.gain + 1e-15) {
          best.gain = gain;
          best.feature = f;
          best.code = static_cast<std::uint8_t>(b);
          best.left_count = static_cast<std::size_t>(left_total);
          best.valid = true;
        }
      }
    }

    if (!best.valid) continue;  // all candidate features constant here

    out.importances[best.feature] += best.gain * static_cast<double>(n);

    // Partition rows in place: left side first.
    const auto& codes = data.codes(best.feature);
    auto middle = std::partition(
        rows.begin() + static_cast<std::ptrdiff_t>(item.begin),
        rows.begin() + static_cast<std::ptrdiff_t>(item.end),
        [&](std::size_t r) { return codes[r] <= best.code; });
    const std::size_t mid =
        static_cast<std::size_t>(middle - rows.begin());

    const auto left_id = static_cast<std::int32_t>(nodes.size());
    nodes.push_back(ml::TreeNode{});
    const auto right_id = static_cast<std::int32_t>(nodes.size());
    nodes.push_back(ml::TreeNode{});

    ml::TreeNode& parent = nodes[static_cast<std::size_t>(item.node)];
    parent.feature = static_cast<std::int32_t>(best.feature);
    parent.threshold = data.binner(best.feature).upper_edge(best.code);
    parent.left = left_id;
    parent.right = right_id;

    work.push({left_id, item.begin, mid, item.depth + 1});
    work.push({right_id, mid, item.end, item.depth + 1});
  }
  return out;
}

std::vector<GrownTree> train_forest(const ml::Dataset& data,
                                    const ml::ForestOptions& options) {
  if (data.empty()) {
    throw std::invalid_argument("reference::train_forest: empty dataset");
  }
  const ml::BinnedDataset binned(data);
  util::Rng rng(options.seed);
  const std::size_t sample_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(options.sample_fraction *
                                  static_cast<double>(data.num_rows())));
  const std::size_t mtry =
      options.mtry != 0
          ? options.mtry
          : std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       std::sqrt(static_cast<double>(data.num_features()))));

  std::vector<GrownTree> trees;
  trees.reserve(options.num_trees);
  std::vector<ml::TreeOptions> tree_options(options.num_trees);
  std::vector<std::vector<std::size_t>> tree_rows(options.num_trees);
  for (std::size_t t = 0; t < options.num_trees; ++t) {
    ml::TreeOptions& topt = tree_options[t];
    topt.max_depth = options.max_depth;
    topt.min_samples_split = options.min_samples_split;
    topt.mtry = mtry;
    topt.seed = rng.next_u64();
    tree_rows[t].resize(sample_size);
    for (auto& r : tree_rows[t]) r = rng.uniform_int(data.num_rows());
  }
  for (std::size_t t = 0; t < options.num_trees; ++t) {
    trees.push_back(grow_tree(binned, tree_options[t], std::move(tree_rows[t])));
  }
  return trees;
}

}  // namespace opprentice::reference
