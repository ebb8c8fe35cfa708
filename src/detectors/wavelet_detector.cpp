#include "detectors/wavelet_detector.hpp"

#include <cmath>
#include <sstream>

#include "util/stats.hpp"

namespace opprentice::detectors {
namespace {

constexpr double kInvSqrt2 = 0.70710678118654752440;

const char* band_name(util::FrequencyBand band) {
  switch (band) {
    case util::FrequencyBand::kLow: return "low";
    case util::FrequencyBand::kMid: return "mid";
    case util::FrequencyBand::kHigh: return "high";
  }
  return "?";
}

std::size_t log2_exact(std::size_t n) {
  std::size_t levels = 0;
  while (n > 1) {
    n >>= 1;
    ++levels;
  }
  return levels;
}

// Node `age` steps before the newest one; requires age < ring.size().
double newest_at(const RingBuffer<double>& ring, std::size_t age) {
  return ring.oldest(ring.size() - 1 - age);
}

}  // namespace

WaveletDetector::WaveletDetector(std::size_t win_days,
                                 util::FrequencyBand band,
                                 const SeriesContext& ctx)
    : win_days_(win_days),
      band_(band),
      window_points_(util::floor_pow2(win_days * ctx.points_per_day)),
      levels_(log2_exact(window_points_)),
      low_end_((levels_ + 2) / 3) {
  // Detail level l (1 = coarsest) pairs nodes of 2^(L-l) points.
  const std::size_t mid_end = low_end_ + (levels_ + 1) / 3;
  std::size_t top = 0;  // highest node level kept
  if (band_ == util::FrequencyBand::kLow) {
    top = levels_ - low_end_;
    const std::size_t blocks = std::size_t{1} << low_end_;
    work_.assign(blocks, 0.0);
    coeffs_.assign(blocks, 0.0);
    next_.assign(blocks, 0.0);
    block_values_.assign(blocks, 0.0);
  } else {
    first_level_ =
        band_ == util::FrequencyBand::kMid ? low_end_ + 1 : mid_end + 1;
    last_level_ = band_ == util::FrequencyBand::kMid ? mid_end : levels_;
    if (first_level_ <= levels_) top = levels_ - first_level_;
  }
  // Level j keeps the newest node and the one 2^j points before it (to
  // build level j + 1 and the newest detail); the low band's top level
  // keeps one node per block across the window.
  nodes_.reserve(top + 1);
  for (std::size_t j = 0; j <= top; ++j) {
    std::size_t capacity = (std::size_t{1} << j) + 1;
    if (band_ == util::FrequencyBand::kLow && j == top) {
      capacity = window_points_ - (std::size_t{1} << top) + 1;
    }
    nodes_.emplace_back(capacity);
  }
}

std::string WaveletDetector::name() const {
  std::ostringstream out;
  out << "wavelet(win=" << win_days_ << "d,freq=" << band_name(band_) << ')';
  return out.str();
}

double WaveletDetector::feed(double value) {
  if (util::is_missing(value)) {
    if (has_last_) push(last_value_);
    return 0.0;
  }
  last_value_ = value;
  has_last_ = true;
  push(value);
  if (pushed_ < window_points_) return 0.0;
  const double severity = band_ == util::FrequencyBand::kLow
                              ? low_band()
                              : std::abs(fast_band());
  return sanitize_severity(severity);
}

void WaveletDetector::push(double value) {
  nodes_[0].push(value);
  for (std::size_t j = 1; j < nodes_.size(); ++j) {
    const RingBuffer<double>& lower = nodes_[j - 1];
    const std::size_t half = std::size_t{1} << (j - 1);
    if (lower.size() <= half) break;  // fewer than 2^j points so far
    nodes_[j].push((newest_at(lower, half) + newest_at(lower, 0)) *
                   kInvSqrt2);
  }
  if (pushed_ < window_points_) ++pushed_;
}

double WaveletDetector::detail(std::size_t level) const {
  const std::size_t j = levels_ - level;
  const RingBuffer<double>& ring = nodes_[j];
  return (newest_at(ring, std::size_t{1} << j) - newest_at(ring, 0)) *
         kInvSqrt2;
}

double WaveletDetector::fast_band() const {
  // Inverse transform along the newest point's path with the approximation
  // and the coarser levels zeroed: (approx - detail) / sqrt(2) per level.
  double v = 0.0;
  for (std::size_t level = first_level_; level <= levels_; ++level) {
    const double d = level <= last_level_ ? detail(level) : 0.0;
    v = (v - d) * kInvSqrt2;
  }
  return v;
}

double WaveletDetector::low_band() {
  const std::size_t blocks = work_.size();
  const std::size_t top = levels_ - low_end_;
  const RingBuffer<double>& approx = nodes_[top];
  for (std::size_t k = 0; k < blocks; ++k) {
    work_[k] = newest_at(approx, (blocks - 1 - k) << top);
  }
  // The coarsest low_end levels of the forward transform...
  for (std::size_t m = blocks; m > 1; m /= 2) {
    const std::size_t half = m / 2;
    for (std::size_t i = 0; i < half; ++i) {
      const double a = work_[2 * i];
      const double b = work_[2 * i + 1];
      coeffs_[half + i] = (a - b) * kInvSqrt2;
      work_[i] = (a + b) * kInvSqrt2;
    }
  }
  coeffs_[0] = work_[0];
  // ...and back, keeping them; the zeroed finer levels then scale every
  // block value by 1/sqrt(2) once per level.
  for (std::size_t m = 1; m < blocks; m *= 2) {
    for (std::size_t i = 0; i < m; ++i) {
      next_[2 * i] = (work_[i] + coeffs_[m + i]) * kInvSqrt2;
      next_[2 * i + 1] = (work_[i] - coeffs_[m + i]) * kInvSqrt2;
    }
    for (std::size_t i = 0; i < 2 * m; ++i) work_[i] = next_[i];
  }
  for (std::size_t k = 0; k < blocks; ++k) {
    double v = work_[k];
    for (std::size_t level = 0; level < top; ++level) v *= kInvSqrt2;
    block_values_[k] = v;
  }
  // Slow components: how far has the baseline drifted from its window
  // median (captures ramps and level shifts). Every point of a block has
  // the block's value, so the median of the blocks is the window's.
  const double newest = block_values_[blocks - 1];
  return std::abs(newest - util::median_inplace(block_values_));
}

void WaveletDetector::reset() {
  for (auto& ring : nodes_) ring.clear();
  pushed_ = 0;
  has_last_ = false;
  last_value_ = 0.0;
}

}  // namespace opprentice::detectors
