// SVD detector [Mahimkar et al., CoNEXT'11].
//
// The last row*col points are arranged column-major into a row x col lag
// matrix (each column is a consecutive segment of the series). A rank-1
// SVD re-projection captures the dominant "normal" behaviour shared by the
// segments; the severity of the newest point is the absolute reconstruction
// residual at the bottom-right matrix entry. Table 3 samples
// row in {10..50} and col in {3, 5, 7} — 15 configurations.
//
// Only the first left singular vector u1 of the past columns P is used,
// and u1 = P v1 / sigma1 where (lambda1 = sigma1^2, v1) is the top
// eigenpair of the (col-1)^2 Gram matrix P^T P. So the detector keeps the
// col x col Gram matrix G of the whole lag matrix as sliding lagged dot
// products (O(col^2) per point, re-summed exactly once per window and
// whenever cancellation could have eaten its precision), finds (lambda1,
// v1) by power then Rayleigh quotient steps warm-started from the previous
// v1, and falls back to cyclic Jacobi when they cannot certify their
// answer. The residual is
//
//   x_t - (v1 . G[0..col-2, col-1]) (v1 . A[row-1, 0..col-2]) / lambda1,
//
// the same quantity the full per-point SVD computes (tests/reference).
#pragma once

#include <cstddef>
#include <vector>

#include "detectors/detector.hpp"
#include "detectors/ring_buffer.hpp"
#include "util/hotpath.hpp"

namespace opprentice::detectors {

class SvdDetector final : public Detector {
 public:
  SvdDetector(std::size_t rows, std::size_t cols);

  std::string name() const override;
  std::size_t warmup_points() const override { return rows_ * cols_; }
  OPPRENTICE_HOT double feed(double value) override;
  void reset() override;

  // Eigen-solves that fell back to Jacobi since construction or reset().
  std::size_t jacobi_fallbacks() const { return jacobi_fallbacks_; }

 private:
  void slide(double value);
  void resum();
  double residual();
  double top_eigenpair(double trace);  // trace of the past block
  void solve_shifted(double shift);
  double jacobi_eigenpair();

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  RingBuffer<double> window_;
  std::vector<double> gram_;  // cols x cols, row-major, symmetric
  std::size_t since_resum_ = 0;
  double drift_mass_ = 0.0;  // squares slid in or out since resum
  std::vector<double> v1_;   // top eigenvector of the past block
  std::size_t jacobi_fallbacks_ = 0;
  double last_value_ = 0.0;
  bool has_last_ = false;
  // Preallocated scratch: entering/leaving segment values, the iterate,
  // the shifted-solve / Jacobi working matrix and the Jacobi rotations.
  std::vector<double> enter_;
  std::vector<double> leave_;
  std::vector<double> iterate_;
  std::vector<double> jacobi_a_;
  std::vector<double> jacobi_v_;
};

}  // namespace opprentice::detectors
