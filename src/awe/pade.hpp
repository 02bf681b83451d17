// Padé approximation from moments (the AWE core, Pillage & Rohrer 1990).
//
// Given 2q moments of H(s), compute the order-q Padé approximant
//   H(s) ~= N(s)/D(s),  deg N = q-1, deg D = q, D(0) = 1,
// by solving the q x q Hankel moment system for the denominator and
// back-substituting the numerator.  Moments are frequency-scaled before
// the solve (s -> s/w0) to control the notorious conditioning of moment
// matrices; poles are scaled back afterwards.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "health/status.hpp"
#include "linalg/dense.hpp"

namespace awe::engine {

struct PadeResult {
  std::size_t order = 0;
  /// Numerator coefficients a_0..a_{q-1} (ascending powers of s).
  std::vector<double> numerator;
  /// Denominator coefficients 1, b_1..b_q (ascending powers of s).
  std::vector<double> denominator;
  /// Frequency scale used internally (poles already unscaled).
  double scale = 1.0;
  /// Poles (roots of the denominator), conjugate pairs adjacent.
  linalg::CVector poles;
  /// Residues r_i = N(p_i)/D'(p_i) of the pole-residue expansion
  /// H(s) = sum_i r_i / (s - p_i).
  linalg::CVector residues;
};

/// Per-worker scratch of the allocation-free Padé lane kernel (pade_lane).
/// Every buffer is sized once, from the largest order the scratch fits;
/// after a successful pade_lane the first six fields hold the approximant,
/// laid out like PadeResult.
struct PadeScratch {
  explicit PadeScratch(std::size_t max_order);

  std::size_t order = 0;
  double scale = 1.0;
  std::vector<double> numerator;
  std::vector<double> denominator;
  linalg::CVector poles;
  linalg::CVector residues;

  // Kernel internals: per probed order q, the scaled moments (slot stride
  // 2*max_order), the Hankel LU factors (max_order^2), the row permutation
  // (max_order) and the frequency scale w0.
  std::size_t max_order = 0;
  std::vector<double> mu, lu, w0, row_scale, rhs, y;
  std::vector<std::size_t> perm;
  linalg::Matrix companion;
};

/// The Padé half of the ROM fit lane kernel.  Runs, operation for
/// operation, what pade_from_moments(moments, order) runs — preceded, when
/// `allow_fallback`, by the max_feasible_order probes of the first
/// min(moments.size(), 2*order) moments and a drop to the largest feasible
/// order — and leaves the approximant in `s`.  Each Hankel factorization
/// that sequence performs consults the linalg.lu_singular failpoint once,
/// even though the solve reuses the factors of its order's probe.  Returns
/// kNone, kOrderCollapse (no feasible order) or kHankelIllConditioned
/// (singular Hankel system, repeated pole) and never allocates.  Throws
/// std::invalid_argument for order 0 without fallback, too few moments or
/// an order above s.max_order.
health::FailClass pade_lane(std::span<const double> moments, std::size_t order,
                            bool allow_fallback, PadeScratch& s);

/// Compute the order-q Padé approximant from at least 2q moments.
/// Throws std::invalid_argument when too few moments are supplied and
/// health::FailError(kHankelIllConditioned) when the Hankel system is
/// singular (moment degeneracy — retry with a lower order) or the
/// approximant has a repeated pole.
PadeResult pade_from_moments(std::span<const double> moments, std::size_t order);

/// Largest order q such that the q x q Hankel system of these moments is
/// numerically nonsingular; useful for automatic order selection.
std::size_t max_feasible_order(std::span<const double> moments);

/// Lane-block form of pade_from_moments: for each lane p < count with
/// ok[p] != 0 and finite moments, runs pade_lane (with its order-fallback
/// probes when allow_fallback) on the lane and stores the approximant in
/// results[p].  Moment k of lane p is read at moments[k*stride + p] (2*order
/// moments per lane).  Lanes that are skipped or fail get results[p].order
/// = 0 and raise nothing.  Returns the number of lanes solved.
std::size_t pade_solve_batch(std::span<const double> moments, std::size_t stride,
                             std::size_t count, std::size_t order, bool allow_fallback,
                             std::span<const unsigned char> ok,
                             std::span<PadeResult> results);

/// Evaluate N(s)/D(s) at complex s.
std::complex<double> evaluate_pade(const PadeResult& pade, std::complex<double> s);

}  // namespace awe::engine
