#include "ml/decision_tree.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <numeric>
#include <sstream>
#include <stack>
#include <stdexcept>

namespace opprentice::ml {
namespace {

constexpr std::size_t kNumBins = 256;
constexpr std::size_t kMaskWords = kNumBins / 64;
constexpr std::uint64_t kLowHalf = 0xffffffffu;

struct SplitCandidate {
  double gain = 0.0;
  std::size_t feature = 0;
  std::uint8_t code = 0;       // go left when bin <= code
  std::uint64_t left_count = 0;
  std::uint64_t left_positives = 0;
  bool valid = false;
};

// One distinct sampled row. `counts` is what it adds to its bin: its
// multiplicity in the low half and multiplicity x label in the high half,
// so a (node, feature) histogram is one add per distinct row.
struct Entry {
  std::uint64_t counts;
  std::uint32_t row;
};

double gini(double pos, double total) {
  if (total <= 0.0) return 0.0;
  const double p = pos / total;
  return 2.0 * p * (1.0 - p);  // 1 - p^2 - (1-p)^2
}

}  // namespace

DecisionTree::DecisionTree(TreeOptions options)
    : options_(options), rng_(options.seed) {}

void DecisionTree::train(const Dataset& data) {
  if (data.empty()) {
    throw std::invalid_argument("DecisionTree::train: empty dataset");
  }
  const BinnedDataset binned(data);
  const std::vector<std::uint32_t> every_row_once(data.num_rows(), 1);
  train_binned(binned, every_row_once);
}

// Grows depth-first (LIFO, left child numbered first), so node numbering
// and the RNG draws for feature subsets follow the node order exactly.
// Every count is weighted by multiplicity: a node's n is the number of
// sampled copies it holds, as if each copy were its own row.
void DecisionTree::train_binned(const BinnedDataset& data,
                                std::span<const std::uint32_t> multiplicity) {
  if (multiplicity.size() != data.num_rows()) {
    throw std::invalid_argument(
        "DecisionTree::train_binned: multiplicity/rows size mismatch");
  }
  if (multiplicity.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("DecisionTree::train_binned: more than 2^32 rows");
  }
  nodes_.clear();
  importances_.assign(data.num_features(), 0.0);

  std::vector<Entry> entries;
  std::uint64_t total = 0;
  std::uint64_t total_positives = 0;
  for (std::size_t r = 0; r < multiplicity.size(); ++r) {
    const std::uint64_t w = multiplicity[r];
    if (w == 0) continue;
    const std::uint64_t positive = w * data.label(r);
    entries.push_back({w | positive << 32, static_cast<std::uint32_t>(r)});
    total += w;
    total_positives += positive;
  }
  if (entries.empty()) {
    throw std::invalid_argument("DecisionTree::train_binned: no rows");
  }
  if (total > kLowHalf || total_positives > kLowHalf) {
    throw std::length_error("DecisionTree::train_binned: 2^32 or more rows");
  }

  const std::size_t num_features = data.num_features();
  const std::size_t mtry =
      options_.mtry == 0 ? num_features
                         : std::min(options_.mtry, num_features);

  struct WorkItem {
    std::int32_t node;
    std::size_t begin;
    std::size_t end;
    std::size_t depth;
    std::uint64_t n;
    std::uint64_t positives;
  };

  // Root.
  nodes_.push_back(TreeNode{});
  std::vector<WorkItem> work;
  work.push_back({0, 0, entries.size(), 0, total, total_positives});

  // All-zero between features: a scan clears exactly the bins it marked.
  std::array<std::uint64_t, kNumBins> hist{};
  std::vector<std::size_t> candidates(num_features);
  std::iota(candidates.begin(), candidates.end(), std::size_t{0});

  while (!work.empty()) {
    const WorkItem item = work.back();
    work.pop_back();
    const std::uint64_t n = item.n;
    const std::uint64_t positives = item.positives;

    TreeNode& node = nodes_[static_cast<std::size_t>(item.node)];
    node.anomaly_fraction =
        static_cast<float>(positives) / static_cast<float>(n);

    const bool pure = positives == 0 || positives == n;
    if (pure || n < options_.min_samples_split ||
        item.depth >= options_.max_depth) {
      continue;  // leaf
    }

    // Random feature subset (random forests evaluate only a random subset
    // of features at each node, §4.4.2).
    if (mtry != num_features) {
      rng_.sample_without_replacement(num_features, mtry, candidates);
    }

    const auto n_total = static_cast<double>(n);
    const auto n_positives = static_cast<double>(positives);
    const double parent_gini = gini(n_positives, n_total);
    SplitCandidate best;

    for (std::size_t f : candidates) {
      const std::uint8_t* codes = data.codes(f).data();
      std::array<std::uint64_t, kMaskWords> occupied{};
      for (std::size_t i = item.begin; i < item.end; ++i) {
        const Entry& e = entries[i];
        const std::uint8_t c = codes[e.row];
        hist[c] += e.counts;
        occupied[c >> 6] |= std::uint64_t{1} << (c & 63);
      }
      std::size_t top = kMaskWords - 1;
      while (occupied[top] == 0) --top;
      const std::size_t max_code =
          64 * top + 63 - static_cast<std::size_t>(std::countl_zero(occupied[top]));

      // Prefix scan over the occupied bins only: a candidate split after
      // each one below max_code. An empty bin would repeat the previous
      // bin's gain, which cannot beat best.gain + 1e-15 a second time.
      std::uint64_t left_count = 0;
      std::uint64_t left_positives = 0;
      for (std::size_t w = 0; w <= top; ++w) {
        for (std::uint64_t bits = occupied[w]; bits != 0; bits &= bits - 1) {
          const std::size_t b =
              64 * w + static_cast<std::size_t>(std::countr_zero(bits));
          const std::uint64_t h = hist[b];
          hist[b] = 0;
          if (b == max_code) break;
          left_count += h & kLowHalf;
          left_positives += h >> 32;
          const auto left_total = static_cast<double>(left_count);
          const auto left_pos = static_cast<double>(left_positives);
          const double right_total = n_total - left_total;
          const double right_pos = n_positives - left_pos;
          const double weighted =
              (left_total * gini(left_pos, left_total) +
               right_total * gini(right_pos, right_total)) /
              n_total;
          const double gain = parent_gini - weighted;
          if (gain > best.gain + 1e-15) {
            best.gain = gain;
            best.feature = f;
            best.code = static_cast<std::uint8_t>(b);
            best.left_count = left_count;
            best.left_positives = left_positives;
            best.valid = true;
          }
        }
      }
    }

    if (!best.valid) continue;  // all candidate features constant here

    importances_[best.feature] += best.gain * n_total;

    // Partition the node's entries in place: left side first.
    const std::uint8_t* codes = data.codes(best.feature).data();
    auto middle = std::partition(
        entries.begin() + static_cast<std::ptrdiff_t>(item.begin),
        entries.begin() + static_cast<std::ptrdiff_t>(item.end),
        [&](const Entry& e) { return codes[e.row] <= best.code; });
    const std::size_t mid =
        static_cast<std::size_t>(middle - entries.begin());

    const auto left_id = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(TreeNode{});
    const auto right_id = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(TreeNode{});

    TreeNode& parent = nodes_[static_cast<std::size_t>(item.node)];
    parent.feature = static_cast<std::int32_t>(best.feature);
    parent.threshold = data.binner(best.feature).upper_edge(best.code);
    parent.left = left_id;
    parent.right = right_id;

    work.push_back({left_id, item.begin, mid, item.depth + 1,
                    best.left_count, best.left_positives});
    work.push_back({right_id, mid, item.end, item.depth + 1,
                    n - best.left_count, positives - best.left_positives});
  }
}

double DecisionTree::score(std::span<const double> features) const {
  if (nodes_.empty()) {
    // opprentice-hotpath: allow(throw) not-trained guard; unreachable once the forest is trained
    throw std::logic_error("DecisionTree::score: not trained");
  }
  std::size_t node = 0;
  for (;;) {
    const TreeNode& n = nodes_[node];
    if (n.feature < 0) return n.anomaly_fraction;
    const double v = features[static_cast<std::size_t>(n.feature)];
    node = static_cast<std::size_t>(v <= n.threshold ? n.left : n.right);
  }
}

double DecisionTree::score_row(ColumnSpans columns, std::size_t row) const {
  if (nodes_.empty()) {
    throw std::logic_error("DecisionTree::score_row: not trained");
  }
  std::size_t node = 0;
  for (;;) {
    const TreeNode& n = nodes_[node];
    if (n.feature < 0) return n.anomaly_fraction;
    const double v = columns[static_cast<std::size_t>(n.feature)][row];
    node = static_cast<std::size_t>(v <= n.threshold ? n.left : n.right);
  }
}

std::size_t DecisionTree::depth() const {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the implicit tree.
  std::size_t max_depth = 0;
  std::stack<std::pair<std::size_t, std::size_t>> work;
  work.push({0, 1});
  while (!work.empty()) {
    const auto [node, d] = work.top();
    work.pop();
    max_depth = std::max(max_depth, d);
    const TreeNode& n = nodes_[node];
    if (n.feature >= 0) {
      work.push({static_cast<std::size_t>(n.left), d + 1});
      work.push({static_cast<std::size_t>(n.right), d + 1});
    }
  }
  return max_depth;
}

std::string DecisionTree::print_rules(
    const std::vector<std::string>& feature_names,
    std::size_t max_print_depth) const {
  std::ostringstream out;
  if (nodes_.empty()) return "(untrained tree)\n";

  struct PrintItem {
    std::size_t node;
    std::size_t depth;
    std::string prefix;
  };
  std::stack<PrintItem> work;
  work.push(PrintItem{0, 0, ""});
  while (!work.empty()) {
    auto [node, depth, prefix] = work.top();
    work.pop();
    const TreeNode& n = nodes_[node];
    const std::string indent(2 * depth, ' ');
    if (n.feature < 0 || depth >= max_print_depth) {
      out << indent << prefix
          << (n.anomaly_fraction >= 0.5f ? "-> Anomaly" : "-> Normal")
          << " (p=" << n.anomaly_fraction << ")\n";
      continue;
    }
    const auto f = static_cast<std::size_t>(n.feature);
    const std::string fname =
        f < feature_names.size() ? feature_names[f] : "feature";
    out << indent << prefix << "severity[" << fname << "]"
        << " split at " << n.threshold << ":\n";
    // Right pushed first so the "<=" branch prints first.
    work.push(PrintItem{static_cast<std::size_t>(n.right), depth + 1, ">  : "});
    work.push(PrintItem{static_cast<std::size_t>(n.left), depth + 1, "<= : "});
  }
  return out.str();
}

}  // namespace opprentice::ml
