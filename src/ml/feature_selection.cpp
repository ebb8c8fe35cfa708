#include "ml/feature_selection.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ml/binning.hpp"
#include "ml/mutual_information.hpp"

namespace opprentice::ml {

double feature_mutual_information(std::span<const double> a,
                                  std::span<const double> b,
                                  std::size_t bins) {
  const std::size_t n = std::min(a.size(), b.size());
  if (n == 0) return 0.0;
  ColumnBinner column_binner;
  std::vector<std::uint8_t> codes_a(a.size());
  std::vector<std::uint8_t> codes_b(b.size());
  const FeatureBinner binner_a = column_binner.bin(a, codes_a, bins);
  const FeatureBinner binner_b = column_binner.bin(b, codes_b, bins);
  const std::size_t na = binner_a.num_bins();
  const std::size_t nb = binner_b.num_bins();

  std::vector<double> joint(na * nb, 0.0);
  std::vector<double> marg_a(na, 0.0), marg_b(nb, 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(a[i]) || std::isnan(b[i])) continue;
    const std::size_t ba = codes_a[i];
    const std::size_t bb = codes_b[i];
    joint[ba * nb + bb] += 1.0;
    marg_a[ba] += 1.0;
    marg_b[bb] += 1.0;
    total += 1.0;
  }
  if (total == 0.0) return 0.0;

  double mi = 0.0;
  for (std::size_t ba = 0; ba < na; ++ba) {
    if (marg_a[ba] == 0.0) continue;
    for (std::size_t bb = 0; bb < nb; ++bb) {
      const double j = joint[ba * nb + bb];
      if (j == 0.0 || marg_b[bb] == 0.0) continue;
      const double p_joint = j / total;
      mi += p_joint *
            std::log(p_joint * total * total / (marg_a[ba] * marg_b[bb]));
    }
  }
  return std::max(mi, 0.0);
}

std::vector<std::size_t> mrmr_select(const Dataset& data, std::size_t k,
                                     const MrmrOptions& options) {
  const std::size_t nf = data.num_features();
  k = std::min(k, nf);
  std::vector<std::size_t> selected;
  if (k == 0 || data.empty()) return selected;

  // Relevance: MI with the label.
  std::vector<double> relevance(nf);
  for (std::size_t f = 0; f < nf; ++f) {
    relevance[f] =
        mutual_information(data.column(f), data.labels(), options.bins);
  }

  std::vector<bool> taken(nf, false);
  std::vector<double> redundancy_sum(nf, 0.0);

  // First pick: maximum relevance.
  std::size_t best = static_cast<std::size_t>(
      std::max_element(relevance.begin(), relevance.end()) -
      relevance.begin());
  selected.push_back(best);
  taken[best] = true;

  while (selected.size() < k) {
    // Update redundancy sums with the feature just selected.
    const auto last = selected.back();
    for (std::size_t f = 0; f < nf; ++f) {
      if (!taken[f]) {
        redundancy_sum[f] += feature_mutual_information(
            data.column(f), data.column(last), options.bins);
      }
    }
    double best_score = -std::numeric_limits<double>::infinity();
    std::size_t best_f = nf;
    for (std::size_t f = 0; f < nf; ++f) {
      if (taken[f]) continue;
      const double score =
          relevance[f] -
          redundancy_sum[f] / static_cast<double>(selected.size());
      if (score > best_score) {
        best_score = score;
        best_f = f;
      }
    }
    if (best_f == nf) break;
    selected.push_back(best_f);
    taken[best_f] = true;
  }
  return selected;
}

}  // namespace opprentice::ml
