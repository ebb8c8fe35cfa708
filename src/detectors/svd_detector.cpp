#include "detectors/svd_detector.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/stats.hpp"

namespace opprentice::detectors {
namespace {

// A singular value at or below this counts as zero: the full SVD leaves
// u1 = 0 there, so the residual is the newest point itself.
constexpr double kSigmaFloor = 1e-12;
// The iteration stops once sin(angle(v, v1)) <= kTolerance, certified by
// the residual bound ||G v - lambda v|| / gap (Davis-Kahan). The first
// kPowerSteps steps are power steps, the rest Rayleigh quotient steps;
// after kMaxIterations the solve falls back to cyclic Jacobi.
constexpr double kTolerance = 1e-11;
constexpr int kMaxIterations = 12;
constexpr int kPowerSteps = 3;
constexpr int kMaxJacobiSweeps = 32;
// Jacobi skips rotations whose off-diagonal entry is below this fraction
// of the trace: they no longer move the top eigenvector measurably.
constexpr double kJacobiEps = 1e-16;
// Stand-in for an exactly zero pivot of G - lambda I, relative to lambda.
constexpr double kTinyPivot = 1e-16;
// Re-sum the Gram matrix once the mass slid through it exceeds this
// multiple of its trace: sliding keeps an absolute error of about
// eps * mass, so this holds the error near 1e-13 of the current scale
// (steady input slides about 2 * cols traces per window).
constexpr double kDriftRatio = 1024.0;

// Unit all-ones vector: the top eigenvector of positive, seasonal data is
// close to it.
double cold_start(std::size_t m) {
  return 1.0 / std::sqrt(static_cast<double>(m));
}

}  // namespace

SvdDetector::SvdDetector(std::size_t rows, std::size_t cols)
    : rows_(rows),
      cols_(cols),
      window_(rows * cols),
      gram_(cols * cols, 0.0),
      v1_(cols - 1, cold_start(cols - 1)),
      enter_(cols, 0.0),
      leave_(cols, 0.0),
      iterate_(cols - 1, 0.0),
      jacobi_a_((cols - 1) * (cols - 1), 0.0),
      jacobi_v_((cols - 1) * (cols - 1), 0.0) {}

std::string SvdDetector::name() const {
  std::ostringstream out;
  out << "svd(row=" << rows_ << ",col=" << cols_ << ')';
  return out.str();
}

double SvdDetector::feed(double value) {
  if (util::is_missing(value)) {
    // Hold the last value so the lag matrix stays well defined.
    if (has_last_) slide(last_value_);
    return 0.0;
  }
  last_value_ = value;
  has_last_ = true;
  slide(value);
  if (!window_.full()) return 0.0;
  return sanitize_severity(std::abs(residual()));
}

void SvdDetector::slide(double value) {
  if (!window_.full()) {
    window_.push(value);
    if (window_.full()) resum();
    return;
  }
  // Segment c loses its oldest point and gains the first point of segment
  // c + 1 (the newest value, for the last segment).
  for (std::size_t c = 0; c < cols_; ++c) {
    leave_[c] = window_.oldest(c * rows_);
    enter_[c] = c + 1 < cols_ ? window_.oldest((c + 1) * rows_) : value;
  }
  window_.push(value);
  double trace = 0.0;
  for (std::size_t i = 0; i < cols_; ++i) {
    for (std::size_t j = i; j < cols_; ++j) {
      const double g = gram_[i * cols_ + j] + enter_[i] * enter_[j] -
                       leave_[i] * leave_[j];
      gram_[i * cols_ + j] = g;
      gram_[j * cols_ + i] = g;
    }
    trace += gram_[i * cols_ + i];
    drift_mass_ += enter_[i] * enter_[i] + leave_[i] * leave_[i];
  }
  ++since_resum_;
  if (since_resum_ >= window_.capacity() ||
      !(drift_mass_ <= kDriftRatio * trace)) {
    resum();
  }
}

void SvdDetector::resum() {
  for (std::size_t i = 0; i < cols_; ++i) {
    for (std::size_t j = i; j < cols_; ++j) {
      double g = 0.0;
      for (std::size_t r = 0; r < rows_; ++r) {
        g += window_.oldest(i * rows_ + r) * window_.oldest(j * rows_ + r);
      }
      gram_[i * cols_ + j] = g;
      gram_[j * cols_ + i] = g;
    }
  }
  since_resum_ = 0;
  drift_mass_ = 0.0;
}

double SvdDetector::residual() {
  const std::size_t m = cols_ - 1;
  const double newest = window_.oldest(window_.size() - 1);
  double trace = 0.0;
  for (std::size_t i = 0; i < m; ++i) trace += gram_[i * cols_ + i];
  // lambda1 <= trace: the past segments carry no energy (and u1 = 0).
  if (!(trace > kSigmaFloor * kSigmaFloor)) return newest;
  const double lambda = top_eigenpair(trace);
  if (!(lambda > kSigmaFloor * kSigmaFloor)) return newest;
  // coeff * u1[last] with u1 = P v1 / sigma1 and coeff = u1 . newest.
  double v_dot_g = 0.0;
  double v_dot_last_row = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    v_dot_g += v1_[i] * gram_[i * cols_ + m];
    v_dot_last_row += v1_[i] * window_.oldest(i * rows_ + rows_ - 1);
  }
  return newest - v_dot_g * v_dot_last_row / lambda;
}

double SvdDetector::top_eigenpair(double trace) {
  const std::size_t m = cols_ - 1;
  double frobenius2 = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      frobenius2 += gram_[i * cols_ + j] * gram_[i * cols_ + j];
    }
  }
  for (int it = 0; it < kMaxIterations; ++it) {
    double lambda = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < m; ++j) s += gram_[i * cols_ + j] * v1_[j];
      iterate_[i] = s;
      lambda += v1_[i] * s;
    }
    double r2 = 0.0;
    double norm2 = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double d = iterate_[i] - lambda * v1_[i];
      r2 += d * d;
      norm2 += iterate_[i] * iterate_[i];
    }
    const double r = std::sqrt(r2);
    // An eigenvalue lies within r of lambda, and lambda2 <= both
    // trace - lambda1 and sqrt(||G||_F^2 - lambda1^2); above that bound
    // it can only be lambda1, and the gap certifies the vector.
    const double lambda2_bound =
        std::min(trace - lambda,
                 std::sqrt(std::max(0.0, frobenius2 - lambda * lambda)));
    const double gap = lambda - lambda2_bound;
    if (gap > 0.0 && r <= kTolerance * gap) return lambda;
    // At the rounding floor more iterations cannot tighten the bound.
    if (!(norm2 > 0.0) || r <= 1e-15 * lambda) break;
    // Power steps pull a cold start towards v1; Rayleigh quotient steps
    // then converge cubically however close lambda2 is.
    if (it >= kPowerSteps) {
      solve_shifted(lambda);
      norm2 = 0.0;
      for (std::size_t i = 0; i < m; ++i) norm2 += iterate_[i] * iterate_[i];
      if (!(norm2 > 0.0) || !std::isfinite(norm2)) break;
    }
    const double inv = 1.0 / std::sqrt(norm2);
    for (std::size_t i = 0; i < m; ++i) v1_[i] = iterate_[i] * inv;
  }
  ++jacobi_fallbacks_;
  return jacobi_eigenpair();
}

void SvdDetector::solve_shifted(double shift) {
  // Gaussian elimination with partial pivoting on [G - shift I | v1],
  // solution into iterate_.
  const std::size_t m = cols_ - 1;
  std::vector<double>& a = jacobi_a_;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) a[i * m + j] = gram_[i * cols_ + j];
    a[i * m + i] -= shift;
    iterate_[i] = v1_[i];
  }
  for (std::size_t k = 0; k < m; ++k) {
    std::size_t pivot = k;
    for (std::size_t i = k + 1; i < m; ++i) {
      if (std::abs(a[i * m + k]) > std::abs(a[pivot * m + k])) pivot = i;
    }
    // An exactly singular shift means lambda is already an eigenvalue
    // to working precision: a tiny pivot then yields its null vector,
    // as in classic inverse iteration.
    if (a[pivot * m + k] == 0.0) a[pivot * m + k] = kTinyPivot * shift;
    if (pivot != k) {
      for (std::size_t j = k; j < m; ++j) {
        std::swap(a[k * m + j], a[pivot * m + j]);
      }
      std::swap(iterate_[k], iterate_[pivot]);
    }
    for (std::size_t i = k + 1; i < m; ++i) {
      const double f = a[i * m + k] / a[k * m + k];
      for (std::size_t j = k; j < m; ++j) a[i * m + j] -= f * a[k * m + j];
      iterate_[i] -= f * iterate_[k];
    }
  }
  for (std::size_t k = m; k-- > 0;) {
    double s = iterate_[k];
    for (std::size_t j = k + 1; j < m; ++j) s -= a[k * m + j] * iterate_[j];
    iterate_[k] = s / a[k * m + k];
  }
}

double SvdDetector::jacobi_eigenpair() {
  const std::size_t m = cols_ - 1;
  std::vector<double>& a = jacobi_a_;
  std::vector<double>& v = jacobi_v_;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      a[i * m + j] = gram_[i * cols_ + j];
      v[i * m + j] = i == j ? 1.0 : 0.0;
    }
  }
  double scale = 0.0;
  for (std::size_t i = 0; i < m; ++i) scale += std::abs(a[i * m + i]);
  for (int sweep = 0; sweep < kMaxJacobiSweeps; ++sweep) {
    bool rotated = false;
    for (std::size_t p = 0; p + 1 < m; ++p) {
      for (std::size_t q = p + 1; q < m; ++q) {
        const double apq = a[p * m + q];
        const double app = a[p * m + p];
        const double aqq = a[q * m + q];
        if (!(std::abs(apq) > kJacobiEps * scale)) {
          continue;
        }
        rotated = true;
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(1.0 + theta * theta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (std::size_t k = 0; k < m; ++k) {
          const double akp = a[k * m + p];
          const double akq = a[k * m + q];
          a[k * m + p] = c * akp - s * akq;
          a[k * m + q] = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < m; ++k) {
          const double apk = a[p * m + k];
          const double aqk = a[q * m + k];
          a[p * m + k] = c * apk - s * aqk;
          a[q * m + k] = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < m; ++k) {
          const double vkp = v[k * m + p];
          const double vkq = v[k * m + q];
          v[k * m + p] = c * vkp - s * vkq;
          v[k * m + q] = s * vkp + c * vkq;
        }
      }
    }
    if (!rotated) break;
  }
  // Largest eigenvalue; ties go to the lowest index.
  std::size_t best = 0;
  for (std::size_t k = 1; k < m; ++k) {
    if (a[k * m + k] > a[best * m + best]) best = k;
  }
  for (std::size_t i = 0; i < m; ++i) v1_[i] = v[i * m + best];
  return a[best * m + best];
}

void SvdDetector::reset() {
  window_.clear();
  std::fill(gram_.begin(), gram_.end(), 0.0);
  since_resum_ = 0;
  drift_mass_ = 0.0;
  std::fill(v1_.begin(), v1_.end(), cold_start(v1_.size()));
  jacobi_fallbacks_ = 0;
  has_last_ = false;
  last_value_ = 0.0;
}

}  // namespace opprentice::detectors
