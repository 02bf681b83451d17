// Gradient-driven design optimization over compiled symbolic models
// (DESIGN.md §14).
//
// The paper's closing loop: once moments AND their exact gradients come
// out of one compiled program run, first-order design tasks — re-centering
// a nominal onto a performance target, finding the worst-case process
// corner — reduce to a handful of cheap evaluations.  Everything here
// works on scalar measures derived from the first moments (DC gain,
// Elmore delay, first-order dominant-pole frequency), whose gradients
// follow from d(moments)/d(value) by the chain rule; the batched sweep
// engine then verifies the re-centered design statistically (yield).
//
// Deterministic by construction: no randomness, no cross-point state —
// the same model and options always produce the same iterates, which is
// what the determinism matrix's gradient rows byte-compare.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/awesymbolic.hpp"

namespace awe::opt {

/// Scalar performance measures with exact compiled gradients.
enum class Measure : std::uint8_t {
  kDcGain,       ///< m_0
  kElmoreDelay,  ///< -m_1 / m_0 (first-order delay estimate)
  kPole1Hz,      ///< |m_0 / m_1| / 2pi (first-order dominant pole, Hz)
};

const char* to_string(Measure m);
/// Parse "dcgain" | "elmore" | "pole1" (returns false on anything else).
bool parse_measure(const std::string& name, Measure& out);

struct MeasureValue {
  double value = 0.0;
  std::vector<double> gradient;  ///< d(value)/d(element value), per symbol
};

/// Evaluate the measure and its exact gradient at `x` through the model's
/// reverse-mode gradient program (requires ModelOptions::with_gradients).
MeasureValue eval_measure(const core::CompiledModel& model, Measure measure,
                          std::span<const double> x);

struct RecenterOptions {
  Measure measure = Measure::kPole1Hz;
  double target = 0.0;
  std::size_t max_iters = 32;
  /// Converged when |value - target| <= tol * max(|target|, |value|).
  double tol = 1e-9;
  /// Largest relative parameter change per iteration (box clamp in log
  /// space, so parameters can never cross zero).
  double max_step = 0.5;
};

struct RecenterResult {
  std::vector<double> x;          ///< re-centered nominal
  double value = 0.0;             ///< measure at x
  double residual = 0.0;          ///< |value - target| / max(|target|, |value|)
  std::size_t iterations = 0;
  bool converged = false;
  std::vector<double> residual_history;  ///< residual after each iteration
};

/// Re-center the nominal design point so the measure hits `target`:
/// log-space Gauss-Newton on the scalar residual with backtracking line
/// search.  Log space both respects the positivity of R/G/C/L values and
/// makes the step a RELATIVE design change, which is the natural unit for
/// process re-centering.  `x0` must be strictly positive (throws
/// std::invalid_argument otherwise).
RecenterResult recenter_nominal(const core::CompiledModel& model,
                                const RecenterOptions& opts, std::span<const double> x0);

struct CornerSearchOptions {
  Measure measure = Measure::kPole1Hz;
  bool maximize = true;  ///< worst case = the extreme the spec fears
  std::vector<double> lo, hi;  ///< per-symbol box (both required)
  std::size_t max_iters = 16;
};

struct CornerSearchResult {
  std::vector<double> corner;  ///< per-symbol lo/hi assignment
  double value = 0.0;          ///< measure at the corner
  std::size_t iterations = 0;
  bool converged = false;  ///< gradient-sign assignment reached a fixed point
};

/// Gradient-directed worst-case corner search: starting from the box
/// midpoint, repeatedly move every symbol to the box face its gradient
/// sign points at, until the assignment is a fixed point.  For measures
/// monotone in each parameter over the box (the common case for
/// first-moment measures) this is exact; otherwise it is a descent-style
/// heuristic that still returns a valid corner and its value.
CornerSearchResult worst_case_corner(const core::CompiledModel& model,
                                     const CornerSearchOptions& opts);

}  // namespace awe::opt
