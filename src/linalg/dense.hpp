// Dense real matrix / vector types used throughout AWEsymbolic.
//
// The matrices in this project are small (moment Hankel systems, companion
// matrices, port-level admittance blocks) so a straightforward row-major
// dense representation is the right tool.  Large circuit matrices use the
// sparse types in sparse.hpp.
#pragma once

#include <cassert>
#include <complex>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <vector>

namespace awe::linalg {

using Vector = std::vector<double>;
using CVector = std::vector<std::complex<double>>;

/// Row-major dense real matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Build from nested initializer list: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> init) {
    rows_ = init.size();
    cols_ = rows_ ? init.begin()->size() : 0;
    data_.reserve(rows_ * cols_);
    for (const auto& row : init) {
      if (row.size() != cols_) throw std::invalid_argument("ragged Matrix initializer");
      data_.insert(data_.end(), row.begin(), row.end());
    }
  }

  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  /// Reshape to rows x cols, every entry `fill`; reuses the storage, so it
  /// does not allocate while rows*cols fits the largest shape held so far.
  void assign(std::size_t rows, std::size_t cols, double fill = 0.0) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, fill);
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  std::span<double> row(std::size_t r) {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  Matrix transposed() const {
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
    return t;
  }

  Matrix& operator+=(const Matrix& o) {
    check_same_shape(o);
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
    return *this;
  }
  Matrix& operator-=(const Matrix& o) {
    check_same_shape(o);
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
    return *this;
  }
  Matrix& operator*=(double k) {
    for (double& v : data_) v *= k;
    return *this;
  }

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double k) { return a *= k; }
  friend Matrix operator*(double k, Matrix a) { return a *= k; }

  friend Matrix operator*(const Matrix& a, const Matrix& b) {
    if (a.cols_ != b.rows_) throw std::invalid_argument("Matrix product shape mismatch");
    Matrix c(a.rows_, b.cols_);
    for (std::size_t i = 0; i < a.rows_; ++i)
      for (std::size_t k = 0; k < a.cols_; ++k) {
        const double aik = a(i, k);
        if (aik == 0.0) continue;
        for (std::size_t j = 0; j < b.cols_; ++j) c(i, j) += aik * b(k, j);
      }
    return c;
  }

  friend Vector operator*(const Matrix& a, const Vector& x) {
    if (a.cols_ != x.size()) throw std::invalid_argument("Matrix*Vector shape mismatch");
    Vector y(a.rows_, 0.0);
    for (std::size_t i = 0; i < a.rows_; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < a.cols_; ++j) s += a(i, j) * x[j];
      y[i] = s;
    }
    return y;
  }

 private:
  void check_same_shape(const Matrix& o) const {
    if (rows_ != o.rows_ || cols_ != o.cols_)
      throw std::invalid_argument("Matrix shape mismatch");
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Euclidean norm of a vector.
double norm2(std::span<const double> v);

/// Infinity norm of a vector.
double norm_inf(std::span<const double> v);

/// Dot product.
double dot(std::span<const double> a, std::span<const double> b);

/// y += k * x
void axpy(double k, std::span<const double> x, std::span<double> y);

}  // namespace awe::linalg
