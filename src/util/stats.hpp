// Scalar statistics used across detectors, data generation, and evaluation.
//
// All functions skip NaN entries ("missing points" in KPI data) unless noted;
// when every entry is NaN (or the span is empty) they return NaN so callers
// can propagate missingness instead of silently inventing values.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace opprentice::util {

// True when x is NaN (we use NaN to encode missing KPI points).
bool is_missing(double x);

// Number of non-NaN entries.
std::size_t count_present(std::span<const double> xs);

double mean(std::span<const double> xs);

// Population variance (divides by the number of present values).
double variance(std::span<const double> xs);

double stddev(std::span<const double> xs);

// q in [0,1]; linear interpolation between order statistics.
double quantile(std::span<const double> xs, double q);

double median(std::span<const double> xs);

// Median absolute deviation around the median, scaled by 1.4826 so it
// estimates the standard deviation for Gaussian data.
double mad(std::span<const double> xs);

// Allocation-free variants for per-point callers. They work on a
// caller-owned buffer, which they reorder (present values first, then
// NaNs) and, for mad_inplace, overwrite with absolute deviations. Results
// are bit-identical to quantile / median / mad on the same values.
double quantile_inplace(std::span<double> xs, double q);
double median_inplace(std::span<double> xs);
double mad_inplace(std::span<double> xs);
// mad_inplace for a caller that already has the median of xs's present
// values (say, from median_inplace on the same buffer): it is used as
// given, not selected a second time.
double mad_inplace(std::span<double> xs, double median);

// mad() of an ascending, NaN-free span, bit-identical to mad() on the
// same values, in O(log n) without touching the input: the median's
// absolute deviations form two sorted runs (left of the median, read
// backwards, and right of it), so their order statistics come from a
// binary search over the split.
double mad_sorted(std::span<const double> sorted);

double min_value(std::span<const double> xs);
double max_value(std::span<const double> xs);

// Coefficient of variation: stddev / mean (Table 1's dispersion measure).
double coefficient_of_variation(std::span<const double> xs);

// Pearson autocorrelation of the series at the given positive lag,
// pairing x[t] with x[t+lag] for every t where both are present.
double autocorrelation(std::span<const double> xs, std::size_t lag);

// Weighted mean with the given non-negative weights (same length as xs).
double weighted_mean(std::span<const double> xs, std::span<const double> ws);

// Streaming mean/variance accumulator (Welford). NaN inputs are ignored.
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const;
  double variance() const;  // population variance
  double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace opprentice::util
