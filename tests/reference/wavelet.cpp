#include "reference/wavelet.hpp"

#include <cmath>
#include <stdexcept>

namespace opprentice::reference {
namespace {

constexpr double kInvSqrt2 = 0.70710678118654752440;

bool is_pow2(std::size_t n) {
  return n >= 2 && (n & (n - 1)) == 0;
}

std::size_t levels_for(std::size_t n) {
  std::size_t levels = 0;
  while (n > 1) {
    n >>= 1;
    ++levels;
  }
  return levels;
}

}  // namespace

std::vector<double> haar_forward(std::span<const double> xs) {
  if (!is_pow2(xs.size())) {
    throw std::invalid_argument("haar_forward: size must be a power of two");
  }
  std::vector<double> work(xs.begin(), xs.end());
  std::vector<double> out(xs.size());
  std::size_t n = xs.size();
  // Each pass halves the working signal; details land at out[n/2 .. n).
  while (n > 1) {
    const std::size_t half = n / 2;
    for (std::size_t i = 0; i < half; ++i) {
      const double a = work[2 * i];
      const double b = work[2 * i + 1];
      out[half + i] = (a - b) * kInvSqrt2;  // detail
      work[i] = (a + b) * kInvSqrt2;        // approximation
    }
    n = half;
  }
  out[0] = work[0];
  return out;
}

std::vector<double> haar_inverse(std::span<const double> coeffs) {
  if (!is_pow2(coeffs.size())) {
    throw std::invalid_argument("haar_inverse: size must be a power of two");
  }
  std::vector<double> work(coeffs.begin(), coeffs.end());
  std::size_t n = 1;
  while (n < coeffs.size()) {
    std::vector<double> next(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      const double approx = work[i];
      const double detail = work[n + i];
      next[2 * i] = (approx + detail) * kInvSqrt2;
      next[2 * i + 1] = (approx - detail) * kInvSqrt2;
    }
    for (std::size_t i = 0; i < 2 * n; ++i) work[i] = next[i];
    n *= 2;
  }
  return work;
}

std::vector<double> band_reconstruction(std::span<const double> xs,
                                        FrequencyBand band) {
  std::vector<double> coeffs = haar_forward(xs);
  const std::size_t levels = levels_for(xs.size());
  // Detail level l (1 = coarsest) occupies coeffs[2^(l-1) .. 2^l).
  // Split the levels into three contiguous groups.
  const std::size_t low_end = (levels + 2) / 3;        // coarsest third
  const std::size_t mid_end = low_end + (levels + 1) / 3;
  for (std::size_t l = 1; l <= levels; ++l) {
    FrequencyBand level_band = FrequencyBand::kHigh;
    if (l <= low_end) {
      level_band = FrequencyBand::kLow;
    } else if (l <= mid_end) {
      level_band = FrequencyBand::kMid;
    }
    if (level_band == band) continue;
    const std::size_t begin = std::size_t{1} << (l - 1);
    const std::size_t end = std::size_t{1} << l;
    for (std::size_t i = begin; i < end; ++i) coeffs[i] = 0.0;
  }
  // The DC approximation belongs to the low band.
  if (band != FrequencyBand::kLow) coeffs[0] = 0.0;
  return haar_inverse(coeffs);
}

}  // namespace opprentice::reference
