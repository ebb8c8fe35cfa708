#include "reference/matrix.hpp"

#include <cmath>
#include <stdexcept>

namespace opprentice::reference {

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::multiplied(const Matrix& other) const {
  if (cols_ != other.rows()) {
    throw std::invalid_argument("Matrix::multiplied: shape mismatch");
  }
  Matrix out(rows_, other.cols());
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < other.cols(); ++c) {
        out(r, c) += a * other(k, c);
      }
    }
  }
  return out;
}

double Matrix::frobenius_distance(const Matrix& other) const {
  if (rows_ != other.rows() || cols_ != other.cols()) {
    throw std::invalid_argument("Matrix::frobenius_distance: shape mismatch");
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    const double d = data_[i] - other.data()[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

}  // namespace opprentice::reference
