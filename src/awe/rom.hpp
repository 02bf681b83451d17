// Reduced-order model: the object an AWE analysis produces.
//
// A pole/residue form  H(s) = sum_i r_i / (s - p_i)  that can be evaluated
// in closed form in both domains — frequency sweeps, impulse and step
// responses, and the amplifier performance measures used throughout the
// paper's examples (DC gain, dominant pole, unity-gain frequency, phase
// margin, delay).  Optionally enforces stability by discarding
// right-half-plane Padé artifacts and re-fitting residues to the leading
// moments (standard AWE practice; the paper notes accurate orders are
// "often less than five" exactly because high orders go unstable).
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "awe/pade.hpp"
#include "linalg/dense.hpp"

namespace awe::engine {

struct RomOptions {
  std::size_t order = 2;
  /// Drop unstable (Re >= 0) poles and re-fit residues to the leading
  /// moments.  A stable circuit with an accurate order never triggers it.
  bool enforce_stability = true;
  /// If the requested order's Hankel system is singular, fall back to the
  /// largest feasible order instead of throwing.
  bool allow_order_fallback = true;
};

class ReducedOrderModel {
 public:
  /// Build from >= 2*order moments.
  static ReducedOrderModel from_moments(std::span<const double> moments,
                                        const RomOptions& opts);

  /// Assemble a model from an already-computed Padé approximant of
  /// `moments` (direct-term extraction, stability filter, residue re-fit —
  /// the tail of from_moments).  `pade` must have been produced by
  /// pade_lane (as pade_solve_batch stores it) at the order from_moments
  /// would have selected for these moments; then from_pade(pade, moments,
  /// opts) equals from_moments(moments, opts) bit for bit.
  static ReducedOrderModel from_pade(PadeResult pade, std::span<const double> moments,
                                     const RomOptions& opts);

  /// Build from moments of the expansion about a real shift point s0
  /// (i.e. Maclaurin coefficients of H(s0 + sigma) in sigma).  Poles are
  /// shifted back to the s-domain; residues are shift-invariant.  The
  /// stored moments() remain the sigma-domain moments.
  static ReducedOrderModel from_shifted_moments(std::span<const double> moments,
                                                const RomOptions& opts, double s0);

  std::size_t order() const { return poles_.size(); }
  const linalg::CVector& poles() const { return poles_; }
  const linalg::CVector& residues() const { return residues_; }
  /// Direct feedthrough term: nonzero only for pole-free (purely
  /// resistive) transfers, where H(s) = d exactly.
  double direct() const { return direct_; }
  /// The moments this model was built from (unscaled).
  const std::vector<double>& moments() const { return moments_; }
  bool is_stable() const;

  // -- frequency domain -------------------------------------------------
  std::complex<double> transfer(std::complex<double> s) const;
  double magnitude(double freq_hz) const;
  double phase_deg(double freq_hz) const;
  double dc_gain() const;
  /// Pole with the smallest |Re| (slowest), if any.
  std::optional<std::complex<double>> dominant_pole() const;
  /// Frequency (Hz) where |H| crosses 1 (0 when |H(0)| <= 1).
  double unity_gain_frequency() const;
  /// 180 + phase(H) at the unity-gain frequency, in degrees.
  double phase_margin_deg() const;

  // -- time domain --------------------------------------------------------
  /// h(t) = sum_i Re[r_i e^{p_i t}]  (unit impulse response).
  double impulse_response(double t) const;
  /// y(t) = sum_i Re[(r_i/p_i)(e^{p_i t} - 1)]  (unit step response).
  double step_response(double t) const;
  /// Response to a unit-slope ramp input (integral of the step response) —
  /// the excitation used by the ramp-input delay-model literature that
  /// builds on AWE.
  double ramp_response(double t) const;
  /// Elmore delay estimate -m_1/m_0 (first moment of the normalized
  /// impulse response) — the classic interconnect delay metric.
  double elmore_delay() const;
  std::vector<double> step_response(std::span<const double> times) const;
  /// Final value of the step response (= H(0)).
  double step_final_value() const;
  /// First time the step response crosses `fraction` of its final value
  /// (bisection on the analytic form); nullopt if never within t_max.
  std::optional<double> step_crossing_time(double fraction, double t_max) const;

 private:
  friend struct FitScratch;
  ReducedOrderModel() = default;

  linalg::CVector poles_;
  linalg::CVector residues_;
  std::vector<double> moments_;
  double direct_ = 0.0;
};

/// Per-point reduced-order model samples, flattened SoA-style.  Points
/// whose Padé fit dropped to a lower order (or failed, order 0) have their
/// unused pole/residue slots NaN-padded.
struct RomSamples {
  std::size_t max_order = 0;
  std::vector<std::uint8_t> order;           ///< actual order per point
  std::vector<std::complex<double>> poles;   ///< [p*max_order + j]
  std::vector<std::complex<double>> residues;///< [p*max_order + j]
  std::vector<double> dc_gain;               ///< per point (NaN on failure)
};

/// Per-worker scratch of the ROM fit lane kernel (fit_lane, fit_lanes).
/// Every buffer is sized once from the model order, so the kernel never
/// allocates; after a successful fit_lane the first four fields (and
/// pade.order) describe the fitted model.
struct FitScratch {
  explicit FitScratch(std::size_t order);

  /// The model of the last successful fit_lane over `moments`.
  ReducedOrderModel model(std::span<const double> moments) const;

  linalg::CVector poles;     ///< kept (stable) poles
  linalg::CVector residues;  ///< their residues
  double direct = 0.0;
  double dc_gain = 0.0;
  PadeScratch pade;
  // Kernel internals: fit_lanes' gathered lane (2*order moments), the
  // residue re-fit system, and the order-2 block path's per-chunk lane
  // fields and candidate mask.
  std::vector<double> lane;
  std::vector<std::complex<double>> refit;
  std::vector<double> block;
  std::vector<unsigned char> candidate;
};

/// The ROM fit lane kernel: from_moments(moments, opts) operation for
/// operation — Padé lane (with order-fallback probes), direct term,
/// stability filter, residue re-fit, DC gain — into `s`, without
/// allocating.  Returns the FailClass from_moments would throw, kNone on
/// success.  `s` must have been sized for at least opts.order.
health::FailClass fit_lane(std::span<const double> moments, const RomOptions& opts,
                           FitScratch& s);

/// fit_lane over a block of SoA moment lanes, straight into RomSamples
/// slots: lane p (p < count) reads moment k at moments[k*stride + p]
/// (2*opts.order moments) and on success writes out's order, poles,
/// residues and dc_gain at point first + p, then calls on_fit(p) (when
/// set, in lane order) while `s` holds that lane's fit.  fail[p] receives
/// the lane's FailClass: kSingularY0 for ok[p] == 0, kNonFiniteEval for
/// non-finite moments (both left unfitted), else fit_lane's verdict.
/// Order 2 with fallback and stability enforcement runs a straight-line
/// block path (unless a failpoint is armed) that is bit-identical to
/// fit_lane and hands every lane off its common path to fit_lane; returns
/// the number of lanes it fitted (0 on the scalar loop).  Throws
/// std::invalid_argument when stride < count, a span is too short for
/// `count` lanes (or `out` for slot first + count - 1), or opts.order
/// exceeds the scratch's order.
std::size_t fit_lanes(std::span<const double> moments, std::size_t stride, std::size_t count,
                      std::span<const unsigned char> ok, const RomOptions& opts,
                      FitScratch& s, RomSamples& out, std::size_t first,
                      std::span<health::FailClass> fail,
                      const std::function<void(std::size_t)>& on_fit = {});

/// x / y as fit_lanes' order-2 block path computes it: Smith's formula
/// inline when every real and imaginary part is zero or of magnitude in
/// [2^-250, 2^250] (and y != 0), where it equals libgcc's __divdc3 bit for
/// bit, else operator/.  Exposed for testing.
std::complex<double> complex_quotient(std::complex<double> x, std::complex<double> y);

/// Dense complex linear solve by Gaussian elimination with partial
/// pivoting; used for the residue re-fit (tiny systems).  Exposed for
/// testing.  a is row-major n x n.
linalg::CVector solve_complex_dense(std::vector<std::complex<double>> a, linalg::CVector b);

}  // namespace awe::engine
