#include "awe/rom.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "health/status.hpp"

namespace awe::engine {

namespace {

/// Gaussian elimination with partial pivoting on row-major n x n `a`,
/// solving into b; false when the system is singular.
bool solve_complex_dense_in_place(std::span<std::complex<double>> a,
                                  std::span<std::complex<double>> b) {
  const std::size_t n = b.size();
  auto at = [&](std::size_t r, std::size_t c) -> std::complex<double>& {
    return a[r * n + c];
  };
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    double best = std::abs(at(k, k));
    for (std::size_t i = k + 1; i < n; ++i)
      if (std::abs(at(i, k)) > best) {
        best = std::abs(at(i, k));
        piv = i;
      }
    if (best < 1e-300) return false;
    if (piv != k) {
      for (std::size_t j = k; j < n; ++j) std::swap(at(k, j), at(piv, j));
      std::swap(b[k], b[piv]);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      const auto m = at(i, k) / at(k, k);
      if (m == std::complex<double>{}) continue;
      for (std::size_t j = k; j < n; ++j) at(i, j) -= m * at(k, j);
      b[i] -= m * b[k];
    }
  }
  for (std::size_t ii = n; ii-- > 0;) {
    auto s = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= at(ii, j) * b[j];
    b[ii] = s / at(ii, ii);
  }
  return true;
}

/// The stability filter shared by every fit: drop the unstable (Re >= 0)
/// poles, keeping the order of the rest, and when any was dropped re-fit
/// the kept poles' residues to the leading moments with the direct term
/// removed from the zeroth (m_0 = d - sum r/p):
///   m_j - [j == 0] d = -sum_i r_i / p_i^{j+1},  j = 0..q-1.
/// The moments are expanded about `shift`, so the re-fit runs on the poles
/// p - shift (exactly p for shift 0).  `work` holds the q x q system.
health::FailClass drop_unstable_and_refit(linalg::CVector& poles, linalg::CVector& residues,
                                          std::span<const double> moments, double direct,
                                          double shift,
                                          std::vector<std::complex<double>>& work) {
  std::size_t q = 0;
  for (std::size_t i = 0; i < poles.size(); ++i)
    if (poles[i].real() < 0.0) poles[q++] = poles[i];
  if (q == poles.size()) return health::FailClass::kNone;
  if (q == 0) return health::FailClass::kAllPolesUnstable;
  poles.resize(q);
  residues.resize(q);
  work.resize(q * q);
  for (std::size_t j = 0; j < q; ++j) {
    for (std::size_t i = 0; i < q; ++i) {
      // -1 / p_i^{j+1}
      const std::complex<double> p = poles[i] - shift;
      std::complex<double> term = -1.0 / p;
      for (std::size_t e = 0; e < j; ++e) term *= 1.0 / p;
      work[j * q + i] = term;
    }
    residues[j] = j == 0 ? moments[0] - direct : moments[j];
  }
  return solve_complex_dense_in_place(work, residues)
             ? health::FailClass::kNone
             : health::FailClass::kHankelIllConditioned;
}

std::complex<double> transfer_at(double direct, std::span<const std::complex<double>> poles,
                                 std::span<const std::complex<double>> residues,
                                 std::complex<double> s) {
  std::complex<double> h{direct, 0.0};
  for (std::size_t i = 0; i < poles.size(); ++i) h += residues[i] / (s - poles[i]);
  return h;
}

/// The tail of from_moments after the Padé solve: direct term, stability
/// filter and residue re-fit, into the kept poles/residues and `direct`.
health::FailClass assemble(std::span<const double> numerator,
                           std::span<const double> denominator,
                           std::span<const std::complex<double>> pade_poles,
                           std::span<const std::complex<double>> pade_residues,
                           std::span<const double> moments, bool enforce_stability,
                           linalg::CVector& poles, linalg::CVector& residues, double& direct,
                           std::vector<std::complex<double>>& work) {
  poles.assign(pade_poles.begin(), pade_poles.end());
  residues.assign(pade_residues.begin(), pade_residues.end());
  // Direct (feedthrough) term.  When the Padé's trailing denominator
  // coefficient vanishes (order collapse), numerator and denominator end
  // up with equal degree and H(inf) = lead(N)/lead(D) != 0 — e.g. pure
  // capacitive feedthrough paths or purely resistive transfers (no poles
  // at all, H = m0).  The residues r_i = N(p_i)/D'(p_i) remain correct in
  // the decomposition H = d + sum r_i/(s - p_i).
  std::size_t nd = numerator.size();
  while (nd > 0 && numerator[nd - 1] == 0.0) --nd;
  std::size_t dd = denominator.size();
  while (dd > 0 && denominator[dd - 1] == 0.0) --dd;
  direct = nd != 0 && nd == dd ? numerator[nd - 1] / denominator[dd - 1] : 0.0;
  if (!enforce_stability) return health::FailClass::kNone;
  return drop_unstable_and_refit(poles, residues, moments, direct, 0.0, work);
}

/// One scratch per thread for the scalar from_moments, grown to the
/// largest order it has been asked for.
FitScratch& thread_scratch(std::size_t order) {
  thread_local std::optional<FitScratch> s;
  if (!s || s->pade.max_order < order) s.emplace(order);
  return *s;
}

[[noreturn]] void throw_fit_failure(health::FailClass c) {
  switch (c) {
    case health::FailClass::kOrderCollapse:
      throw health::FailError(c, "ReducedOrderModel: no feasible Padé order");
    case health::FailClass::kAllPolesUnstable:
      throw health::FailError(
          c, "ReducedOrderModel: all Padé poles unstable; circuit/order invalid");
    default:
      throw health::FailError(c,
                              "ReducedOrderModel: ill-conditioned Padé fit (singular Hankel "
                              "system, repeated pole or singular residue re-fit)");
  }
}

}  // namespace

linalg::CVector solve_complex_dense(std::vector<std::complex<double>> a, linalg::CVector b) {
  if (a.size() != b.size() * b.size())
    throw std::invalid_argument("solve_complex_dense: shape mismatch");
  if (!solve_complex_dense_in_place(a, b))
    throw health::FailError(health::FailClass::kHankelIllConditioned,
                            "solve_complex_dense: singular system");
  return b;
}

FitScratch::FitScratch(std::size_t order) : pade(order), lane(2 * order) {
  poles.reserve(order);
  residues.reserve(order);
  refit.reserve(order * order);
}

ReducedOrderModel FitScratch::model(std::span<const double> moments) const {
  ReducedOrderModel rom;
  rom.moments_.assign(moments.begin(),
                      moments.begin() + static_cast<std::ptrdiff_t>(2 * pade.order));
  rom.poles_ = poles;
  rom.residues_ = residues;
  rom.direct_ = direct;
  return rom;
}

health::FailClass fit_lane(std::span<const double> moments, const RomOptions& opts,
                           FitScratch& s) {
  health::FailClass f = pade_lane(moments, opts.order, opts.allow_order_fallback, s.pade);
  if (f == health::FailClass::kNone)
    f = assemble(s.pade.numerator, s.pade.denominator, s.pade.poles, s.pade.residues, moments,
                 opts.enforce_stability, s.poles, s.residues, s.direct, s.refit);
  if (f == health::FailClass::kNone)
    s.dc_gain = transfer_at(s.direct, s.poles, s.residues, {0.0, 0.0}).real();
  return f;
}

void fit_lanes(std::span<const double> moments, std::size_t stride, std::size_t count,
               std::span<const unsigned char> ok, const RomOptions& opts, FitScratch& s,
               RomSamples& out, std::size_t first, std::span<health::FailClass> fail,
               const std::function<void(std::size_t)>& on_fit) {
  const std::size_t nm = 2 * opts.order;
  for (std::size_t p = 0; p < count; ++p) {
    if (!ok[p]) {
      fail[p] = health::FailClass::kSingularY0;
      continue;
    }
    bool finite = true;
    for (std::size_t k = 0; k < nm; ++k) {
      s.lane[k] = moments[k * stride + p];
      finite = finite && std::isfinite(s.lane[k]);
    }
    fail[p] = finite ? fit_lane(s.lane, opts, s) : health::FailClass::kNonFiniteEval;
    if (fail[p] != health::FailClass::kNone) continue;
    const std::size_t slot = first + p;
    const std::size_t q = std::min(s.poles.size(), out.max_order);
    out.order[slot] = static_cast<std::uint8_t>(q);
    for (std::size_t j = 0; j < q; ++j) {
      out.poles[slot * out.max_order + j] = s.poles[j];
      out.residues[slot * out.max_order + j] = s.residues[j];
    }
    out.dc_gain[slot] = s.dc_gain;
    if (on_fit) on_fit(p);
  }
}

ReducedOrderModel ReducedOrderModel::from_moments(std::span<const double> moments,
                                                  const RomOptions& opts) {
  FitScratch& s = thread_scratch(opts.order);
  const health::FailClass f = fit_lane(moments, opts, s);
  if (f != health::FailClass::kNone) throw_fit_failure(f);
  return s.model(moments);
}

ReducedOrderModel ReducedOrderModel::from_pade(PadeResult pade,
                                               std::span<const double> moments,
                                               const RomOptions& opts) {
  ReducedOrderModel rom;
  std::vector<std::complex<double>> work;
  const health::FailClass f =
      assemble(pade.numerator, pade.denominator, pade.poles, pade.residues, moments,
               opts.enforce_stability, rom.poles_, rom.residues_, rom.direct_, work);
  if (f != health::FailClass::kNone) throw_fit_failure(f);
  rom.moments_.assign(moments.begin(),
                      moments.begin() + static_cast<std::ptrdiff_t>(2 * pade.order));
  return rom;
}

ReducedOrderModel ReducedOrderModel::from_shifted_moments(std::span<const double> moments,
                                                          const RomOptions& opts,
                                                          double s0) {
  // Padé in the sigma domain, without stability filtering (stability is a
  // property of the s-domain poles).
  RomOptions sigma_opts = opts;
  sigma_opts.enforce_stability = false;
  ReducedOrderModel rom = from_moments(moments, sigma_opts);
  for (auto& p : rom.poles_) p += s0;

  if (opts.enforce_stability) {
    // A sigma-domain fit with no poles at all counts as unstable here.
    if (rom.poles_.empty()) throw_fit_failure(health::FailClass::kAllPolesUnstable);
    // Re-fit in the sigma domain where the moments live.
    std::vector<std::complex<double>> work;
    const health::FailClass f = drop_unstable_and_refit(rom.poles_, rom.residues_, moments,
                                                        rom.direct_, s0, work);
    if (f != health::FailClass::kNone) throw_fit_failure(f);
  }
  return rom;
}

bool ReducedOrderModel::is_stable() const {
  return std::all_of(poles_.begin(), poles_.end(),
                     [](const std::complex<double>& p) { return p.real() < 0.0; });
}

std::complex<double> ReducedOrderModel::transfer(std::complex<double> s) const {
  return transfer_at(direct_, poles_, residues_, s);
}

double ReducedOrderModel::magnitude(double freq_hz) const {
  return std::abs(transfer({0.0, 2.0 * M_PI * freq_hz}));
}

double ReducedOrderModel::phase_deg(double freq_hz) const {
  return std::arg(transfer({0.0, 2.0 * M_PI * freq_hz})) * 180.0 / M_PI;
}

double ReducedOrderModel::dc_gain() const { return transfer({0.0, 0.0}).real(); }

std::optional<std::complex<double>> ReducedOrderModel::dominant_pole() const {
  if (poles_.empty()) return std::nullopt;
  return *std::min_element(poles_.begin(), poles_.end(),
                           [](const auto& a, const auto& b) {
                             return std::abs(a.real()) < std::abs(b.real());
                           });
}

double ReducedOrderModel::unity_gain_frequency() const {
  if (std::abs(dc_gain()) <= 1.0) return 0.0;
  // Bracket the crossing on a log-frequency grid anchored at the dominant
  // pole, then bisect.
  const auto dom = dominant_pole();
  double f_lo = dom ? std::abs(dom->real()) / (2.0 * M_PI) * 1e-3 : 1e-3;
  if (f_lo <= 0.0) f_lo = 1e-3;
  double f_hi = f_lo;
  for (int i = 0; i < 400 && magnitude(f_hi) > 1.0; ++i) f_hi *= 2.0;
  if (magnitude(f_hi) > 1.0) return 0.0;  // never crosses in range
  for (int i = 0; i < 200; ++i) {
    const double mid = std::sqrt(f_lo * f_hi);
    if (magnitude(mid) > 1.0)
      f_lo = mid;
    else
      f_hi = mid;
  }
  return std::sqrt(f_lo * f_hi);
}

double ReducedOrderModel::phase_margin_deg() const {
  const double fu = unity_gain_frequency();
  if (fu <= 0.0) return 180.0;
  // Phase accumulated between DC and the unity-gain frequency.  Measuring
  // relative to the DC phase makes the margin convention-independent for
  // inverting amplifiers (arg H(0) = 180 deg).
  double shift = phase_deg(fu) - std::arg(transfer({0.0, 0.0})) * 180.0 / M_PI;
  while (shift > 0.0) shift -= 360.0;
  while (shift <= -360.0) shift += 360.0;
  return 180.0 + shift;
}

double ReducedOrderModel::impulse_response(double t) const {
  double h = 0.0;
  for (std::size_t i = 0; i < poles_.size(); ++i)
    h += (residues_[i] * std::exp(poles_[i] * t)).real();
  return h;
}

double ReducedOrderModel::step_response(double t) const {
  double y = (t >= 0.0) ? direct_ : 0.0;
  for (std::size_t i = 0; i < poles_.size(); ++i)
    y += ((residues_[i] / poles_[i]) * (std::exp(poles_[i] * t) - 1.0)).real();
  return y;
}

double ReducedOrderModel::ramp_response(double t) const {
  // Integral of the step response:
  //   int_0^t (r/p)(e^{p tau} - 1) dtau = (r/p)((e^{p t} - 1)/p - t).
  double y = direct_ * t;
  for (std::size_t i = 0; i < poles_.size(); ++i) {
    const auto rp = residues_[i] / poles_[i];
    y += (rp * ((std::exp(poles_[i] * t) - 1.0) / poles_[i] - t)).real();
  }
  return y;
}

double ReducedOrderModel::elmore_delay() const {
  if (moments_.size() < 2 || moments_[0] == 0.0) return 0.0;
  return -moments_[1] / moments_[0];
}

std::vector<double> ReducedOrderModel::step_response(std::span<const double> times) const {
  std::vector<double> y;
  y.reserve(times.size());
  for (const double t : times) y.push_back(step_response(t));
  return y;
}

double ReducedOrderModel::step_final_value() const { return dc_gain(); }

std::optional<double> ReducedOrderModel::step_crossing_time(double fraction,
                                                            double t_max) const {
  const double target = fraction * step_final_value();
  const double y0 = step_response(0.0);
  // Scan for a bracket, then bisect.
  constexpr int kScan = 4096;
  double prev_t = 0.0, prev_y = y0;
  for (int i = 1; i <= kScan; ++i) {
    const double t = t_max * static_cast<double>(i) / kScan;
    const double y = step_response(t);
    if ((prev_y - target) * (y - target) <= 0.0 && prev_y != y) {
      double lo = prev_t, hi = t;
      for (int it = 0; it < 100; ++it) {
        const double mid = 0.5 * (lo + hi);
        if ((step_response(mid) - target) * (prev_y - target) > 0.0)
          lo = mid;
        else
          hi = mid;
      }
      return 0.5 * (lo + hi);
    }
    prev_t = t;
    prev_y = y;
  }
  return std::nullopt;
}

}  // namespace awe::engine
