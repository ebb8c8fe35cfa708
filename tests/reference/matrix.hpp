// Minimal dense row-major matrix for the reference SVD.
#pragma once

#include <cstddef>
#include <vector>

namespace opprentice::reference {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  Matrix transposed() const;

  // this * other; requires cols() == other.rows().
  Matrix multiplied(const Matrix& other) const;

  // Frobenius norm of (this - other); requires equal shapes.
  double frobenius_distance(const Matrix& other) const;

  const std::vector<double>& data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace opprentice::reference
