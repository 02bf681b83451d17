// Dense LU factorization with partial pivoting.
//
// AWE's moment recursion solves the same DC matrix against many right-hand
// sides, so the factorization is kept and re-applied (factor once, solve
// many) — the property that makes AWE an order of magnitude cheaper than
// repeated full solves.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "linalg/dense.hpp"

namespace awe::linalg {

/// LU factorization P*A = L*U of a square dense matrix.
class LuFactorization {
 public:
  /// Factor `a`; returns std::nullopt when the matrix is numerically
  /// singular (pivot below `pivot_tol` times the row scale).
  static std::optional<LuFactorization> factor(Matrix a, double pivot_tol = 1e-13);

  /// Solve A x = b in place.
  void solve_in_place(std::span<double> b) const;
  Vector solve(Vector b) const;

  /// Solve A^T x = b in place (used by adjoint sensitivity analysis).
  void solve_transposed_in_place(std::span<double> b) const;
  Vector solve_transposed(Vector b) const;

  /// Determinant of A (product of pivots times permutation sign).
  double determinant() const;

  std::size_t size() const { return lu_.rows(); }

  /// Estimate of the reciprocal pivot growth; small values flag ill
  /// conditioning.
  double min_abs_pivot() const;

 private:
  LuFactorization(Matrix lu, std::vector<std::size_t> perm, int perm_sign)
      : lu_(std::move(lu)), perm_(std::move(perm)), perm_sign_(perm_sign) {}

  Matrix lu_;                       // L below diagonal (unit), U on/above
  std::vector<std::size_t> perm_;   // row permutation
  int perm_sign_ = 1;
};

/// LuFactorization::factor on caller-owned storage, for hot loops that must
/// not allocate: factors the row-major n x n matrix `a` in place, writes
/// the row permutation to perm[0..n) and uses scale[0..n) as scratch.
/// Consults the linalg.lu_singular failpoint exactly as factor() does.
/// Returns the permutation sign, or 0 when the matrix is singular.
int lu_factor_in_place(std::span<double> a, std::size_t n, std::span<std::size_t> perm,
                       std::span<double> scale, double pivot_tol = 1e-13);

/// LuFactorization::solve_in_place on lu_factor_in_place's output; y holds
/// n doubles of scratch.
void lu_solve_in_place(std::span<const double> lu, std::size_t n,
                       std::span<const std::size_t> perm, std::span<double> b,
                       std::span<double> y);

/// Convenience: one-shot dense solve. Throws std::runtime_error on singular A.
Vector solve_dense(Matrix a, Vector b);

}  // namespace awe::linalg
