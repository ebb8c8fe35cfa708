#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace opprentice::util {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// 1.4826 makes MAD a consistent estimator of sigma under Gaussian data.
constexpr double kMadScale = 1.4826;

std::vector<double> present_values(std::span<const double> xs) {
  std::vector<double> v;
  v.reserve(xs.size());
  for (double x : xs) {
    if (!is_missing(x)) v.push_back(x);
  }
  return v;
}

// Moves the present values to the front (order not kept), fills the rest
// with NaN, and returns how many there are. The buffer stays a
// permutation of its missing and present values, so compacting it again
// finds the same ones.
std::size_t compact_present(std::span<double> xs) {
  std::size_t n = 0;
  for (double x : xs) {
    if (!is_missing(x)) xs[n++] = x;
  }
  std::fill(xs.begin() + static_cast<std::ptrdiff_t>(n), xs.end(), kNaN);
  return n;
}

// Position of quantile q among n order statistics, and the interpolation
// every quantile variant shares: xlo + frac * (xhi - xlo).
double interpolate(double q, std::size_t n, std::size_t* lo) {
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(n - 1);
  *lo = static_cast<std::size_t>(pos);
  return pos - static_cast<double>(*lo);
}

// The quantile of non-empty, NaN-free `v`, which it reorders.
double select_quantile(std::span<double> v, double q) {
  std::size_t lo = 0;
  const double frac = interpolate(q, v.size(), &lo);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.end());
  const double xlo = v[lo];
  if (hi == lo) return xlo;
  const double xhi =
      *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                        v.end());
  return xlo + frac * (xhi - xlo);
}

}  // namespace

bool is_missing(double x) {
  return std::isnan(x);
}

std::size_t count_present(std::span<const double> xs) {
  std::size_t n = 0;
  for (double x : xs) {
    if (!is_missing(x)) ++n;
  }
  return n;
}

double mean(std::span<const double> xs) {
  double sum = 0.0;
  std::size_t n = 0;
  for (double x : xs) {
    if (!is_missing(x)) {
      sum += x;
      ++n;
    }
  }
  return n == 0 ? kNaN : sum / static_cast<double>(n);
}

double variance(std::span<const double> xs) {
  RunningStats rs;
  for (double x : xs) rs.add(x);
  return rs.count() == 0 ? kNaN : rs.variance();
}

double stddev(std::span<const double> xs) {
  const double v = variance(xs);
  return is_missing(v) ? kNaN : std::sqrt(v);
}

double quantile(std::span<const double> xs, double q) {
  std::vector<double> v = present_values(xs);
  if (v.empty()) return kNaN;
  return select_quantile(v, q);
}

double median(std::span<const double> xs) {
  return quantile(xs, 0.5);
}

double mad(std::span<const double> xs) {
  const double med = median(xs);
  if (is_missing(med)) return kNaN;
  std::vector<double> dev;
  dev.reserve(xs.size());
  for (double x : xs) {
    if (!is_missing(x)) dev.push_back(std::abs(x - med));
  }
  const double raw = median(dev);
  return is_missing(raw) ? kNaN : kMadScale * raw;
}

double quantile_inplace(std::span<double> xs, double q) {
  const std::size_t n = compact_present(xs);
  if (n == 0) return kNaN;
  return select_quantile(xs.first(n), q);
}

double median_inplace(std::span<double> xs) {
  return quantile_inplace(xs, 0.5);
}

double mad_inplace(std::span<double> xs) {
  return mad_inplace(xs, median_inplace(xs));
}

double mad_inplace(std::span<double> xs, double median) {
  if (is_missing(median)) return kNaN;
  const std::span<double> present = xs.first(compact_present(xs));
  for (double& x : present) x = std::abs(x - median);
  // Deviations of infinities from an infinite median are NaN; mad() drops
  // them too.
  const double raw = median_inplace(present);
  return is_missing(raw) ? kNaN : kMadScale * raw;
}

double mad_sorted(std::span<const double> sorted) {
  const std::size_t n = sorted.size();
  if (n == 0) return kNaN;
  std::size_t lo = 0;
  const double frac = interpolate(0.5, n, &lo);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double med =
      hi == lo ? sorted[lo] : sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  if (is_missing(med)) return kNaN;
  if (std::isinf(med)) {
    // Every deviation from an infinite median is infinite, except those
    // of the median's own infinity: |inf - inf| is NaN, and mad() drops
    // it. Of m infinite deviations the median is inf for m == 1 and
    // inf + frac * (inf - inf) = NaN for m >= 2.
    const auto same = std::count(sorted.begin(), sorted.end(), med);
    const std::size_t m = n - static_cast<std::size_t>(same);
    return m == 1 ? kMadScale * std::numeric_limits<double>::infinity()
                  : kNaN;
  }
  // Run A: values below the median, nearest first; run B: the rest,
  // nearest first. Both hold non-decreasing deviations.
  const std::size_t split = static_cast<std::size_t>(
      std::lower_bound(sorted.begin(), sorted.end(), med) - sorted.begin());
  const std::size_t a = split;
  const std::size_t b = n - split;
  const auto dev_a = [&](std::size_t i) {
    return std::abs(sorted[split - 1 - i] - med);
  };
  const auto dev_b = [&](std::size_t j) {
    return std::abs(sorted[split + j] - med);
  };
  // The lo + 1 smallest deviations are A[0, i) and B[0, take - i) for
  // the smallest i whose next A entry is not below the last B entry
  // taken; they hold order statistics lo and lo + 1 at their boundary.
  const std::size_t take = lo + 1;
  std::size_t i = take > b ? take - b : 0;
  std::size_t right = std::min(a, take);
  while (i < right) {
    const std::size_t mid = i + (right - i) / 2;
    if (dev_b(take - mid - 1) > dev_a(mid)) {
      i = mid + 1;
    } else {
      right = mid;
    }
  }
  const std::size_t j = take - i;
  double xlo = -std::numeric_limits<double>::infinity();
  if (i > 0) xlo = dev_a(i - 1);
  if (j > 0) xlo = std::max(xlo, dev_b(j - 1));
  double raw = xlo;
  if (hi != lo) {
    double xhi = std::numeric_limits<double>::infinity();
    if (i < a) xhi = dev_a(i);
    if (j < b) xhi = std::min(xhi, dev_b(j));
    raw = xlo + frac * (xhi - xlo);
  }
  return kMadScale * raw;
}

double min_value(std::span<const double> xs) {
  double best = kNaN;
  for (double x : xs) {
    if (is_missing(x)) continue;
    if (is_missing(best) || x < best) best = x;
  }
  return best;
}

double max_value(std::span<const double> xs) {
  double best = kNaN;
  for (double x : xs) {
    if (is_missing(x)) continue;
    if (is_missing(best) || x > best) best = x;
  }
  return best;
}

double coefficient_of_variation(std::span<const double> xs) {
  const double m = mean(xs);
  const double s = stddev(xs);
  if (is_missing(m) || is_missing(s) || m == 0.0) return kNaN;
  return s / m;
}

double autocorrelation(std::span<const double> xs, std::size_t lag) {
  if (lag == 0 || lag >= xs.size()) return kNaN;
  const double m = mean(xs);
  if (is_missing(m)) return kNaN;
  double num = 0.0, den_a = 0.0, den_b = 0.0;
  std::size_t pairs = 0;
  for (std::size_t t = 0; t + lag < xs.size(); ++t) {
    const double a = xs[t], b = xs[t + lag];
    if (is_missing(a) || is_missing(b)) continue;
    num += (a - m) * (b - m);
    den_a += (a - m) * (a - m);
    den_b += (b - m) * (b - m);
    ++pairs;
  }
  if (pairs == 0 || den_a == 0.0 || den_b == 0.0) return kNaN;
  return num / std::sqrt(den_a * den_b);
}

double weighted_mean(std::span<const double> xs, std::span<const double> ws) {
  double sum = 0.0, wsum = 0.0;
  const std::size_t n = std::min(xs.size(), ws.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (is_missing(xs[i])) continue;
    sum += ws[i] * xs[i];
    wsum += ws[i];
  }
  return wsum == 0.0 ? kNaN : sum / wsum;
}

void RunningStats::add(double x) {
  if (is_missing(x)) return;
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  return n_ == 0 ? kNaN : mean_;
}

double RunningStats::variance() const {
  return n_ == 0 ? kNaN : m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const {
  const double v = variance();
  return std::isnan(v) ? v : std::sqrt(v);
}

}  // namespace opprentice::util
