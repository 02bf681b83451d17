#include "awe/pade.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "health/failpoints.hpp"
#include "health/status.hpp"
#include "linalg/lu.hpp"
#include "linalg/polyroots.hpp"

namespace awe::engine {
namespace {

constexpr double kProbePivotTol = 1e-10;  // max_feasible_order's feasibility test
constexpr double kSolvePivotTol = 1e-13;  // the solve's (LuFactorization's default)

double* mu_slot(PadeScratch& s, std::size_t q) { return &s.mu[(q - 1) * 2 * s.max_order]; }
double* lu_slot(PadeScratch& s, std::size_t q) {
  return &s.lu[(q - 1) * s.max_order * s.max_order];
}
std::size_t* perm_slot(PadeScratch& s, std::size_t q) {
  return &s.perm[(q - 1) * s.max_order];
}

/// Scaled moments mu_k = m_k * w0^k, k < 2q, into order q's slot; they
/// correspond to s_hat = s / w0.
void scale_moments(std::span<const double> m, std::size_t q, double w0, PadeScratch& s) {
  double* mu = mu_slot(s, q);
  double pw = 1.0;
  for (std::size_t k = 0; k < 2 * q; ++k) {
    mu[k] = m[k] * pw;
    pw *= w0;
  }
}

/// Factor order q's Hankel system for the denominator coefficients
/// (ascending b_1..b_q):  sum_{j=1..q} b_j mu_{k-j} = -mu_k, k = q..2q-1.
bool factor_hankel(PadeScratch& s, std::size_t q, double pivot_tol) {
  const double* mu = mu_slot(s, q);
  double* h = lu_slot(s, q);
  for (std::size_t row = 0; row < q; ++row)
    for (std::size_t j = 1; j <= q; ++j) h[row * q + j - 1] = mu[q + row - j];
  return linalg::lu_factor_in_place({h, q * q}, q, {perm_slot(s, q), q}, s.row_scale,
                                    pivot_tol) != 0;
}

/// The max_feasible_order probes for q = 1..qmax; each feasible order's
/// scale and Hankel factors stay in its slot.  Returns the largest feasible q.
std::size_t probe_orders(std::span<const double> m, std::size_t qmax, PadeScratch& s) {
  std::size_t best = 0;
  for (std::size_t q = 1; q <= qmax; ++q) {
    // The 1x1 Hankel [mu_0] = [m_0 * 1] does not depend on the scale.
    s.w0[q - 1] = q == 1 ? 1.0 : moment_scale(m.first(2 * q));
    scale_moments(m, q, s.w0[q - 1], s);
    if (factor_hankel(s, q, kProbePivotTol)) best = q;
  }
  return best;
}

/// One scratch per thread for the scalar wrappers, grown to the largest
/// order they have been asked for.
PadeScratch& thread_scratch(std::size_t order) {
  thread_local std::optional<PadeScratch> s;
  if (!s || s->max_order < order) s.emplace(order);
  return *s;
}

}  // namespace

PadeScratch::PadeScratch(std::size_t max_order)
    : max_order(max_order),
      mu(2 * max_order * max_order),
      lu(max_order * max_order * max_order),
      w0(max_order),
      row_scale(max_order),
      rhs(max_order),
      y(max_order),
      perm(max_order * max_order),
      companion(max_order, max_order) {
  numerator.reserve(max_order);
  denominator.reserve(max_order + 1);
  poles.reserve(max_order);
  residues.reserve(max_order);
}

health::FailClass pade_lane(std::span<const double> moments, std::size_t order,
                            bool allow_fallback, PadeScratch& s) {
  using health::FailClass;
  if (order > s.max_order)
    throw std::invalid_argument("pade_lane: order exceeds the scratch's max_order");
  std::size_t q = order;
  if (allow_fallback) {
    const std::size_t feasible =
        probe_orders(moments, std::min(moments.size(), 2 * order) / 2, s);
    if (feasible == 0) return FailClass::kOrderCollapse;
    q = std::min(q, feasible);
  }
  if (q == 0) throw std::invalid_argument("pade: order must be >= 1");
  if (moments.size() < 2 * q)
    throw std::invalid_argument("pade: need 2q moments for an order-q approximant");

  // The solve's own factorization.  After the probes it is the feasible
  // probe's (same scale, same Hankel matrix, and a pivot that passed 1e-10
  // passes 1e-13), so only its failpoint check is left to run — and, at
  // q = 1, the scale the probe skipped.
  if (allow_fallback) {
    if (health::failpoints::fires(health::failpoints::sites::kLuSingular))
      return FailClass::kHankelIllConditioned;
    if (q == 1) {
      s.w0[0] = moment_scale(moments.first(2));
      scale_moments(moments, 1, s.w0[0], s);
    }
  } else {
    s.w0[q - 1] = moment_scale(moments.first(2 * q));
    scale_moments(moments, q, s.w0[q - 1], s);
    if (!factor_hankel(s, q, kSolvePivotTol)) return FailClass::kHankelIllConditioned;
  }
  const double w0 = s.w0[q - 1];
  const double* mu = mu_slot(s, q);
  const std::span<double> b(s.rhs.data(), q);
  for (std::size_t row = 0; row < q; ++row) b[row] = -mu[q + row];
  linalg::lu_solve_in_place({lu_slot(s, q), q * q}, q, {perm_slot(s, q), q}, b, s.y);

  // Numerator by matching the first q moments:
  //   a_k = mu_k + sum_{j=1..k} b_j mu_{k-j},  k = 0..q-1,
  // then unscale: coefficient of s^k divides by w0^k.
  s.numerator.resize(q);
  s.denominator.resize(q + 1);
  for (std::size_t k = 0; k < q; ++k) {
    double a = mu[k];
    for (std::size_t j = 1; j <= k; ++j) a += b[j - 1] * mu[k - j];
    s.numerator[k] = a;
  }
  s.denominator[0] = 1.0;
  double pw = 1.0;
  for (std::size_t k = 0; k < q; ++k) {
    s.numerator[k] = s.numerator[k] / pw;
    s.denominator[k + 1] = b[k] / (pw * w0);
    pw *= w0;
  }

  s.poles.clear();
  linalg::poly_roots_into(s.denominator, s.poles, s.companion);
  s.residues.resize(s.poles.size());
  for (std::size_t i = 0; i < s.poles.size(); ++i) {
    const auto p = s.poles[i];
    const auto num = linalg::poly_eval(s.numerator, p);
    const auto dden = linalg::poly_eval_derivative(s.denominator, p);
    if (std::abs(dden) == 0.0) return FailClass::kHankelIllConditioned;  // repeated pole
    s.residues[i] = num / dden;
  }
  s.order = q;
  s.scale = w0;
  return FailClass::kNone;
}

PadeResult pade_from_moments(std::span<const double> moments, std::size_t order) {
  PadeScratch& s = thread_scratch(order);
  if (pade_lane(moments, order, /*allow_fallback=*/false, s) != health::FailClass::kNone)
    throw health::FailError(health::FailClass::kHankelIllConditioned,
                            "pade: singular Hankel system or repeated pole (moment "
                            "degeneracy; try a lower order)");
  return {s.order, s.numerator, s.denominator, s.scale, s.poles, s.residues};
}

std::size_t max_feasible_order(std::span<const double> moments) {
  return probe_orders(moments, moments.size() / 2, thread_scratch(moments.size() / 2));
}

std::size_t pade_solve_batch(std::span<const double> moments, std::size_t stride,
                             std::size_t count, std::size_t order, bool allow_fallback,
                             std::span<const unsigned char> ok,
                             std::span<PadeResult> results) {
  if (order == 0) throw std::invalid_argument("pade_solve_batch: order must be >= 1");
  const std::size_t nm = 2 * order;
  if (stride < count)
    throw std::invalid_argument("pade_solve_batch: stride smaller than count");
  if (count > 0 && moments.size() < (nm - 1) * stride + count)
    throw std::invalid_argument("pade_solve_batch: moments span too small");
  if (ok.size() < count || results.size() < count)
    throw std::invalid_argument("pade_solve_batch: ok/results span too small");

  PadeScratch& s = thread_scratch(order);
  std::vector<double> lane(nm);
  std::size_t solved = 0;
  for (std::size_t p = 0; p < count; ++p) {
    results[p] = PadeResult{};  // order 0 == not solved here
    if (!ok[p]) continue;
    bool finite = true;
    for (std::size_t k = 0; k < nm; ++k) {
      lane[k] = moments[k * stride + p];
      finite = finite && std::isfinite(lane[k]);
    }
    if (!finite || pade_lane(lane, order, allow_fallback, s) != health::FailClass::kNone)
      continue;
    results[p] = {s.order, s.numerator, s.denominator, s.scale, s.poles, s.residues};
    ++solved;
  }
  return solved;
}

std::complex<double> evaluate_pade(const PadeResult& pade, std::complex<double> s) {
  return linalg::poly_eval(pade.numerator, s) / linalg::poly_eval(pade.denominator, s);
}

}  // namespace awe::engine
