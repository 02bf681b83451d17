#include "linalg/polyroots.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/eig.hpp"

namespace awe::linalg {
namespace {

/// Trim leading (high-order) zeros; returns trimmed ascending coefficients.
std::span<const double> trim_leading(std::span<const double> coeffs) {
  std::size_t deg = coeffs.size();
  while (deg > 0 && coeffs[deg - 1] == 0.0) --deg;
  return coeffs.first(deg);
}

}  // namespace

std::complex<double> poly_eval(std::span<const double> coeffs, std::complex<double> x) {
  std::complex<double> acc{0.0, 0.0};
  for (std::size_t i = coeffs.size(); i-- > 0;) acc = acc * x + coeffs[i];
  return acc;
}

std::complex<double> poly_eval_derivative(std::span<const double> coeffs,
                                          std::complex<double> x) {
  std::complex<double> acc{0.0, 0.0};
  for (std::size_t i = coeffs.size(); i-- > 1;)
    acc = acc * x + coeffs[i] * static_cast<double>(i);
  return acc;
}

void poly_roots_into(std::span<const double> coeffs, CVector& roots, Matrix& companion) {
  std::span<const double> c = trim_leading(coeffs);
  if (c.empty()) throw std::invalid_argument("poly_roots: zero polynomial");
  // Factor out x^k for trailing zero coefficients (exact zero roots).
  std::size_t first_nonzero = 0;
  while (first_nonzero < c.size() && c[first_nonzero] == 0.0) ++first_nonzero;
  for (std::size_t i = 0; i < first_nonzero; ++i) roots.emplace_back(0.0, 0.0);
  c = c.subspan(first_nonzero);

  const std::size_t n = c.size() - 1;  // degree
  if (n == 0) return;
  if (n == 1) {
    roots.emplace_back(-c[0] / c[1], 0.0);
    return;
  }
  if (n == 2) {
    // Stable quadratic formula.
    const double a = c[2], b = c[1], c0 = c[0];
    const double disc = b * b - 4.0 * a * c0;
    if (disc >= 0.0) {
      const double q = -0.5 * (b + (b >= 0.0 ? 1.0 : -1.0) * std::sqrt(disc));
      roots.emplace_back(q / a, 0.0);
      roots.emplace_back(q != 0.0 ? c0 / q : 0.0, 0.0);
    } else {
      const double re = -b / (2.0 * a);
      const double im = std::sqrt(-disc) / (2.0 * a);
      roots.emplace_back(re, im);
      roots.emplace_back(re, -im);
    }
    return;
  }

  // Companion matrix of the monic polynomial.
  companion.assign(n, n);
  for (std::size_t i = 0; i + 1 < n; ++i) companion(i + 1, i) = 1.0;
  for (std::size_t i = 0; i < n; ++i) companion(i, n - 1) = -c[i] / c[n];
  const std::size_t first_eig = roots.size();
  eigenvalues_into(companion, roots);

  // Polish with complex Newton on the original coefficients.
  for (std::size_t k = first_eig; k < roots.size(); ++k) {
    auto& r = roots[k];
    for (int it = 0; it < 8; ++it) {
      const auto f = poly_eval(c, r);
      const auto fp = poly_eval_derivative(c, r);
      if (std::abs(fp) == 0.0) break;
      const auto step = f / fp;
      r -= step;
      if (std::abs(step) <= 1e-14 * (1.0 + std::abs(r))) break;
    }
    // Snap nearly-real roots onto the real axis.
    if (std::abs(r.imag()) <= 1e-10 * (1.0 + std::abs(r.real()))) r = {r.real(), 0.0};
  }
}

CVector poly_roots(std::span<const double> coeffs) {
  CVector roots;
  roots.reserve(coeffs.size());
  Matrix companion;
  poly_roots_into(coeffs, roots, companion);
  return roots;
}

CVector poly_roots_aberth(std::span<const double> coeffs, int max_iters) {
  const std::span<const double> c = trim_leading(coeffs);
  if (c.size() < 2) throw std::invalid_argument("poly_roots_aberth: degree must be >= 1");
  const std::size_t n = c.size() - 1;

  // Initial guesses on a circle of radius given by the Cauchy bound,
  // slightly rotated off the real axis so conjugate symmetry cannot trap
  // the iteration.
  double radius = 0.0;
  for (std::size_t i = 0; i < n; ++i) radius = std::max(radius, std::abs(c[i] / c[n]));
  radius = 1.0 + radius;
  CVector z(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double theta = 2.0 * M_PI * static_cast<double>(k) / static_cast<double>(n) + 0.4;
    z[k] = std::polar(radius * 0.8, theta);
  }

  for (int it = 0; it < max_iters; ++it) {
    double max_step = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const auto f = poly_eval(c, z[k]);
      const auto fp = poly_eval_derivative(c, z[k]);
      std::complex<double> ratio = (fp != 0.0) ? f / fp : std::complex<double>{0.0, 0.0};
      std::complex<double> rep{0.0, 0.0};
      for (std::size_t j = 0; j < n; ++j)
        if (j != k) rep += 1.0 / (z[k] - z[j]);
      const auto denom = 1.0 - ratio * rep;
      const auto step = (std::abs(denom) > 1e-300) ? ratio / denom : ratio;
      z[k] -= step;
      max_step = std::max(max_step, std::abs(step));
    }
    if (max_step < 1e-14 * radius) break;
  }
  for (auto& r : z)
    if (std::abs(r.imag()) <= 1e-9 * (1.0 + std::abs(r.real()))) r = {r.real(), 0.0};
  return z;
}

}  // namespace awe::linalg
