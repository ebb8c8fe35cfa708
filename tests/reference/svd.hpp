// Reference oracle: thin singular value decomposition via one-sided
// Jacobi rotations.
//
// The SVD detector used to run this on its lag matrix (<= 50 x 7) at
// every point; it now keeps an incremental Gram matrix instead
// (src/detectors/svd_detector.hpp). The full decomposition stays here as
// the differential oracle the detector is tested against.
#pragma once

#include <vector>

#include "reference/matrix.hpp"

namespace opprentice::reference {

struct SvdResult {
  Matrix u;                            // rows x k, orthonormal columns
  std::vector<double> singular_values; // k values, descending
  Matrix v;                            // cols x k, orthonormal columns
};

// Computes the thin SVD A = U * diag(s) * V^T with k = min(rows, cols).
// Singular values are returned in descending order.
SvdResult svd(const Matrix& a);

// Reconstructs A keeping only the top `rank` singular components.
Matrix low_rank_approximation(const Matrix& a, std::size_t rank);

}  // namespace opprentice::reference
