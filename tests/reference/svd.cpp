#include "reference/svd.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace opprentice::reference {
namespace {

// One-sided Jacobi works on the columns of a tall matrix; rotate pairs of
// columns until they are mutually orthogonal.
constexpr int kMaxSweeps = 60;
constexpr double kEps = 1e-12;

}  // namespace

SvdResult svd(const Matrix& a_in) {
  // Work on a tall copy; if the input is wide, decompose the transpose and
  // swap U and V at the end.
  const bool transposed = a_in.rows() < a_in.cols();
  Matrix a = transposed ? a_in.transposed() : a_in;
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();

  // V accumulates the column rotations.
  Matrix v(n, n);
  for (std::size_t i = 0; i < n; ++i) v(i, i) = 1.0;

  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    bool converged = true;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        double alpha = 0.0, beta = 0.0, gamma = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          alpha += a(i, p) * a(i, p);
          beta += a(i, q) * a(i, q);
          gamma += a(i, p) * a(i, q);
        }
        if (std::abs(gamma) <= kEps * std::sqrt(alpha * beta) ||
            gamma == 0.0) {
          continue;
        }
        converged = false;
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (std::size_t i = 0; i < m; ++i) {
          const double ap = a(i, p);
          const double aq = a(i, q);
          a(i, p) = c * ap - s * aq;
          a(i, q) = s * ap + c * aq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double vp = v(i, p);
          const double vq = v(i, q);
          v(i, p) = c * vp - s * vq;
          v(i, q) = s * vp + c * vq;
        }
      }
    }
    if (converged) break;
  }

  // Column norms of the rotated A are the singular values.
  std::vector<double> sigma(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double norm = 0.0;
    for (std::size_t i = 0; i < m; ++i) norm += a(i, j) * a(i, j);
    sigma[j] = std::sqrt(norm);
  }

  // Order components by descending singular value.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return sigma[x] > sigma[y]; });

  Matrix u(m, n);
  Matrix v_sorted(n, n);
  std::vector<double> s_sorted(n);
  for (std::size_t jj = 0; jj < n; ++jj) {
    const std::size_t j = order[jj];
    s_sorted[jj] = sigma[j];
    const double inv = sigma[j] > kEps ? 1.0 / sigma[j] : 0.0;
    for (std::size_t i = 0; i < m; ++i) u(i, jj) = a(i, j) * inv;
    for (std::size_t i = 0; i < n; ++i) v_sorted(i, jj) = v(i, j);
  }

  if (transposed) {
    return SvdResult{std::move(v_sorted), std::move(s_sorted), std::move(u)};
  }
  return SvdResult{std::move(u), std::move(s_sorted), std::move(v_sorted)};
}

Matrix low_rank_approximation(const Matrix& a, std::size_t rank) {
  SvdResult d = svd(a);
  const std::size_t k =
      std::min(rank, d.singular_values.size());
  Matrix out(a.rows(), a.cols());
  for (std::size_t comp = 0; comp < k; ++comp) {
    const double s = d.singular_values[comp];
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const double us = d.u(i, comp) * s;
      if (us == 0.0) continue;
      for (std::size_t j = 0; j < a.cols(); ++j) {
        out(i, j) += us * d.v(j, comp);
      }
    }
  }
  return out;
}

}  // namespace opprentice::reference
