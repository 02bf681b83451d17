#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "health/failpoints.hpp"

namespace awe::linalg {

int lu_factor_in_place(std::span<double> a, std::size_t n, std::span<std::size_t> perm,
                       std::span<double> scale, double pivot_tol) {
  // Injection site: report the matrix as singular (pivot degeneracy) so
  // every caller exercises its ill-conditioned-factor handling.
  if (health::failpoints::fires(health::failpoints::sites::kLuSingular)) return 0;
  const auto at = [&](std::size_t r, std::size_t c) -> double& { return a[r * n + c]; };
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  int sign = 1;

  // Row scales for the pivot-degeneracy test.
  for (std::size_t i = 0; i < n; ++i) {
    scale[i] = 0.0;
    for (std::size_t j = 0; j < n; ++j) scale[i] = std::max(scale[i], std::abs(at(i, j)));
    if (scale[i] == 0.0) scale[i] = 1.0;
  }

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest scaled entry in column k.
    std::size_t piv = k;
    double best = std::abs(at(k, k)) / scale[k];
    for (std::size_t i = k + 1; i < n; ++i) {
      const double cand = std::abs(at(i, k)) / scale[i];
      if (cand > best) {
        best = cand;
        piv = i;
      }
    }
    if (best < pivot_tol) return 0;
    if (piv != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(at(k, j), at(piv, j));
      std::swap(perm[k], perm[piv]);
      std::swap(scale[k], scale[piv]);
      sign = -sign;
    }
    const double pivot = at(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = at(i, k) / pivot;
      at(i, k) = m;
      if (m == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) at(i, j) -= m * at(k, j);
    }
  }
  return sign;
}

void lu_solve_in_place(std::span<const double> lu, std::size_t n,
                       std::span<const std::size_t> perm, std::span<double> b,
                       std::span<double> y) {
  const auto at = [&](std::size_t r, std::size_t c) { return lu[r * n + c]; };
  // Apply permutation: y = P b.
  for (std::size_t i = 0; i < n; ++i) y[i] = b[perm[i]];
  // Forward substitution L z = y (unit diagonal).
  for (std::size_t i = 1; i < n; ++i) {
    double s = y[i];
    for (std::size_t j = 0; j < i; ++j) s -= at(i, j) * y[j];
    y[i] = s;
  }
  // Back substitution U x = z.
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= at(ii, j) * y[j];
    y[ii] = s / at(ii, ii);
  }
  std::copy(y.begin(), y.begin() + static_cast<std::ptrdiff_t>(n), b.begin());
}

std::optional<LuFactorization> LuFactorization::factor(Matrix a, double pivot_tol) {
  if (a.rows() != a.cols()) throw std::invalid_argument("LU requires square matrix");
  const std::size_t n = a.rows();
  std::vector<std::size_t> perm(n);
  std::vector<double> scale(n);
  const int sign = lu_factor_in_place(a.data(), n, perm, scale, pivot_tol);
  if (sign == 0) return std::nullopt;
  return LuFactorization(std::move(a), std::move(perm), sign);
}

void LuFactorization::solve_in_place(std::span<double> b) const {
  const std::size_t n = lu_.rows();
  if (b.size() != n) throw std::invalid_argument("LU solve size mismatch");
  Vector y(n);
  lu_solve_in_place(lu_.data(), n, perm_, b, y);
}

Vector LuFactorization::solve(Vector b) const {
  solve_in_place(b);
  return b;
}

void LuFactorization::solve_transposed_in_place(std::span<double> b) const {
  const std::size_t n = lu_.rows();
  if (b.size() != n) throw std::invalid_argument("LU solve size mismatch");
  // A^T = (P^T L U)^T = U^T L^T P, so solve U^T z = b, L^T w = z, x = P^T w.
  Vector y(b.begin(), b.end());
  // Forward substitution U^T z = b.
  for (std::size_t i = 0; i < n; ++i) {
    double s = y[i];
    for (std::size_t j = 0; j < i; ++j) s -= lu_(j, i) * y[j];
    y[i] = s / lu_(i, i);
  }
  // Back substitution L^T w = z (unit diagonal).
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= lu_(j, ii) * y[j];
    y[ii] = s;
  }
  // x = P^T w: x[perm[i]] = w[i].
  for (std::size_t i = 0; i < n; ++i) b[perm_[i]] = y[i];
}

Vector LuFactorization::solve_transposed(Vector b) const {
  solve_transposed_in_place(b);
  return b;
}

double LuFactorization::determinant() const {
  double d = perm_sign_;
  for (std::size_t i = 0; i < lu_.rows(); ++i) d *= lu_(i, i);
  return d;
}

double LuFactorization::min_abs_pivot() const {
  double m = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < lu_.rows(); ++i) m = std::min(m, std::abs(lu_(i, i)));
  return m;
}

Vector solve_dense(Matrix a, Vector b) {
  auto lu = LuFactorization::factor(std::move(a));
  if (!lu) throw std::runtime_error("solve_dense: singular matrix");
  return lu->solve(std::move(b));
}

}  // namespace awe::linalg
