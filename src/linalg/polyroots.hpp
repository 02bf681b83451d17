// Polynomial root finding for Padé denominators / numerators.
//
// Roots are computed as companion-matrix eigenvalues and then polished
// with a few complex Newton steps on the original coefficients, which
// recovers the accuracy lost to balancing/QR round-off.  A pure
// Aberth–Ehrlich iteration is provided as an independent fallback (and is
// exercised against the companion path in the property tests).
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "linalg/dense.hpp"

namespace awe::linalg {

/// Roots of  c[0] + c[1] x + ... + c[n] x^n  (ascending coefficients).
/// Leading zero coefficients are trimmed; zero roots from trailing zero
/// coefficients are returned explicitly.  Throws on the zero polynomial.
CVector poly_roots(std::span<const double> coeffs);

/// poly_roots() without allocating: appends the roots to `roots`, whose
/// capacity must hold them, and uses `companion` as the companion-matrix
/// scratch above degree 2 (see Matrix::assign).
void poly_roots_into(std::span<const double> coeffs, CVector& roots, Matrix& companion);

/// Aberth–Ehrlich simultaneous iteration (independent algorithm, used for
/// cross-checking).  Same coefficient convention as poly_roots.
CVector poly_roots_aberth(std::span<const double> coeffs, int max_iters = 200);

/// Evaluate polynomial (ascending coefficients) at complex x via Horner.
std::complex<double> poly_eval(std::span<const double> coeffs, std::complex<double> x);

/// Evaluate derivative of polynomial at complex x.
std::complex<double> poly_eval_derivative(std::span<const double> coeffs,
                                          std::complex<double> x);

}  // namespace awe::linalg
