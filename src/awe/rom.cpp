#include "awe/rom.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "health/failpoints.hpp"
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

// -- fit_lanes' order-2 block path (DESIGN.md §7) ---------------------------
//
// fit_lane at order 2 with fallback and stability enforcement, restated as
// straight-line code over a chunk of lanes.  Each lane runs the same IEEE
// operations, in the same order, as pade_lane + assemble + transfer_at on
// the common path: order 2 feasible, a nonzero trailing denominator
// coefficient, simple poles and both poles stable.  Every other lane is
// handed to fit_lane.

constexpr std::size_t kBlockLanes = 64;
/// Rows of FitScratch::block, kBlockLanes doubles each: the moments and
/// scale in, fit_order2's results out.
enum BlockRow : std::size_t {
  kM0, kM1, kM2, kM3, kW0,
  kP0Re, kP0Im, kP1Re, kP1Im, kR0Re, kR0Im, kR1Re, kR1Im, kDc,
  kBlockRows
};

/// Zero, or a magnitude in [2^-250, 2^250]: the window where Smith's
/// formula has no overflow, underflow or subnormal intermediate.
bool in_quotient_window(double v) {
  const double a = std::abs(v);
  return a == 0.0 || (a >= 0x1p-250 && a <= 0x1p250);
}

/// libgcc's __divdc3 (Smith's method, GCC >= 12 with its range scaling)
/// restricted to operands in the window: there each scaling step multiplies
/// every operand by a power of two that the final quotient cancels exactly,
/// a nonzero ratio is normal, and a zero ratio's alternative formula gives
/// the same signed zeros as this one.  Outside the window, operator/.
inline std::complex<double> quotient(std::complex<double> x, std::complex<double> y) {
  const double a = x.real(), b = x.imag(), c = y.real(), d = y.imag();
  if (!(in_quotient_window(a) && in_quotient_window(b) && in_quotient_window(c) &&
        in_quotient_window(d)) ||
      (c == 0.0 && d == 0.0))
    return x / y;
  if (std::abs(c) < std::abs(d)) {
    const double ratio = c / d;
    const double denom = (c * ratio) + d;
    return {((a * ratio) + b) / denom, ((b * ratio) - a) / denom};
  }
  const double ratio = d / c;
  const double denom = (d * ratio) + c;
  return {((b * ratio) + a) / denom, (b - (a * ratio)) / denom};
}

struct Order2Fit {
  std::complex<double> poles[2];
  std::complex<double> residues[2];
  double dc_gain;
};

/// fit_lane on moments m0..m3 with w0 = moment_scale(m0..m3), when the
/// lane is on the common path; false (f unspecified) when it is not.  The
/// per-lane reference of fit_order2_pair.
bool fit_order2(double m0, double m1, double m2, double m3, double w0, Order2Fit& f) {
  if (!std::isfinite(w0) || w0 == 0.0) return false;
  // scale_moments at q = 2: the running power is 1, w0, w0*w0, (w0*w0)*w0.
  const double w2 = w0 * w0;
  const double mu0 = m0, mu1 = m1 * w0, mu2 = m2 * w2, mu3 = m3 * (w2 * w0);

  // factor_hankel's 2x2 LU with row scaling, partial pivoting and the
  // probe's 1e-10 pivot test; rows (mu1, mu0) and (mu2, mu1).
  double u00 = mu1, u01 = mu0, u10 = mu2, u11 = mu1;
  double s0 = std::max(std::max(0.0, std::abs(u00)), std::abs(u01));
  if (s0 == 0.0) s0 = 1.0;
  double s1 = std::max(std::max(0.0, std::abs(u10)), std::abs(u11));
  if (s1 == 0.0) s1 = 1.0;
  double best = std::abs(u00) / s0;
  const double cand = std::abs(u10) / s1;
  const bool swapped = cand > best;
  if (swapped) {
    best = cand;
    std::swap(u00, u10);
    std::swap(u01, u11);
    std::swap(s0, s1);
  }
  if (best < 1e-10) return false;  // order 2 infeasible: fallback
  const double l10 = u10 / u00;
  if (l10 != 0.0) u11 -= l10 * u01;
  if (std::abs(u11) / s1 < 1e-10) return false;

  // lu_solve_in_place on b = -(mu2, mu3), then the unscaled coefficients.
  double y0 = swapped ? -mu3 : -mu2, y1 = swapped ? -mu2 : -mu3;
  y1 -= l10 * y0;
  y1 = y1 / u11;
  y0 -= u01 * y1;
  y0 = y0 / u00;
  const double n0 = mu0, n1 = (mu1 + y0 * mu0) / w0;
  const double d0 = 1.0, d1 = y0 / w0, d2 = y1 / (w0 * w0);
  if (d2 == 0.0) return false;  // order collapse: direct term

  // poly_roots_into's quadratic.
  const double disc = d1 * d1 - 4.0 * d2 * d0;
  std::complex<double> p0, p1;
  if (disc >= 0.0) {
    const double q = -0.5 * (d1 + (d1 >= 0.0 ? 1.0 : -1.0) * std::sqrt(disc));
    p0 = {q / d2, 0.0};
    p1 = {q != 0.0 ? d0 / q : 0.0, 0.0};
  } else {
    const double re = -d1 / (2.0 * d2);
    const double im = std::sqrt(-disc) / (2.0 * d2);
    p0 = {re, im};
    p1 = {re, -im};
  }
  // The stability filter keeps both poles, so there is no re-fit.
  if (!(p0.real() < 0.0 && p1.real() < 0.0)) return false;

  // Residues N(p)/D'(p) by poly_eval's and poly_eval_derivative's Horner
  // steps; the direct term is 0 since deg N < deg D.
  const std::complex<double> zero{0.0, 0.0};
  const std::complex<double> poles[2] = {p0, p1};
  for (int i = 0; i < 2; ++i) {
    const std::complex<double> p = poles[i];
    const std::complex<double> num = (zero * p + n1) * p + n0;
    const std::complex<double> dden = (zero * p + d2 * 2.0) * p + d1 * 1.0;
    if (dden.real() == 0.0 && dden.imag() == 0.0) return false;  // repeated pole
    f.poles[i] = p;
    f.residues[i] = quotient(num, dden);
  }
  // transfer_at(0): DC gain.
  std::complex<double> h{0.0, 0.0};
  h += quotient(f.residues[0], zero - p0);
  h += quotient(f.residues[1], zero - p1);
  f.dc_gain = h.real();
  return std::isfinite(f.dc_gain) && std::isfinite(f.residues[0].real()) &&
         std::isfinite(f.residues[0].imag()) && std::isfinite(f.residues[1].real()) &&
         std::isfinite(f.residues[1].imag());
}

// fit_order2 on two lanes at once, in GCC vector types (DESIGN.md §7).
// Every operation is the scalar one per element, so each lane gets
// fit_order2's bits; branches become both arms and a bit-mask select (not
// vector ?:, which not every compiler accepts).  The kernel does not
// decide a lane's verdict: it returns an exit mask of the lanes fit_order2
// must redo, which covers fit_order2's own early-outs and every step where
// the scalar code would run something else: __muldc3's NaN recovery, a
// quotient outside the Smith window, and a scale whose unscaling division
// is not an exact multiplication.
typedef double V2d __attribute__((vector_size(16)));
typedef std::int64_t V2i __attribute__((vector_size(16)));

[[gnu::always_inline]] inline V2d splat(double x) { return V2d{x, x}; }
[[gnu::always_inline]] inline V2d load2(const double* p) {
  V2d v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
[[gnu::always_inline]] inline void store2(double* p, V2d v) { std::memcpy(p, &v, sizeof v); }
/// m ? a : b per element; m is all ones or all zeros per element.
[[gnu::always_inline]] inline V2d pick(V2i m, V2d a, V2d b) {
  return (V2d)((m & (V2i)a) | (~m & (V2i)b));
}
[[gnu::always_inline]] inline V2d vabs(V2d x) {
  return (V2d)((V2i)x & V2i{INT64_MAX, INT64_MAX});
}
/// std::max(a, b): b when a < b, else a (NaN and signed zeros included).
[[gnu::always_inline]] inline V2d vmax(V2d a, V2d b) { return pick((V2i)(a < b), b, a); }
[[gnu::always_inline]] inline V2i in_window(V2d x) {
  const V2d a = vabs(x);
  return (V2i)(a == splat(0.0)) | ((V2i)(a >= splat(0x1p-250)) & (V2i)(a <= splat(0x1p250)));
}

struct V2c {
  V2d re, im;
};
/// x * y as GCC expands std::complex's operator*, without its call to
/// __muldc3 when both parts are NaN: such a product leaves NaN parts in a
/// quotient operand, and cdiv's window test sends the lane back.
[[gnu::always_inline]] inline V2c cmul(V2c x, V2c y) {
  return {x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re};
}
/// quotient(x, y), Smith's formula only; `exit` gets the lanes outside
/// its window.  Inside it every part of the quotient is below 2^502 in
/// magnitude (the denominator is at least max(|c|, |d|)), so finite.
[[gnu::always_inline]] inline V2c cdiv(V2c x, V2c y, V2i& exit) {
  const V2d a = x.re, b = x.im, c = y.re, d = y.im;
  exit |= ~(in_window(a) & in_window(b) & in_window(c) & in_window(d)) |
          ((V2i)(c == splat(0.0)) & (V2i)(d == splat(0.0)));
  const V2i by_d = (V2i)(vabs(c) < vabs(d));
  const V2d top = pick(by_d, c, d), bottom = pick(by_d, d, c);
  const V2d ratio = top / bottom;
  const V2d denom = (top * ratio) + bottom;
  const V2d lead = pick(by_d, a, b), other = pick(by_d, b, a), scaled = other * ratio;
  return {((lead * ratio) + other) / denom, pick(by_d, scaled - a, b - scaled) / denom};
}

/// fit_order2 on lanes i and i + 1 of the block rows; returns the exit
/// mask and stores the fits of the other lanes in the result rows.
[[gnu::always_inline]] inline V2i fit_order2_pair(double* const row[], std::size_t i) {
  const V2d zero = splat(0.0), one = splat(1.0);
  const V2d m0 = load2(row[kM0] + i), m1 = load2(row[kM1] + i), m2 = load2(row[kM2] + i),
            m3 = load2(row[kM3] + i), w0 = load2(row[kW0] + i);
  // w0 = 2^e: keep |e| <= 511, so that w0 * w0 and 2^-2e are normal and
  // each unscaling division by w0 or w0 * w0 is a multiplication by its
  // exact inverse.
  const V2i bits = (V2i)w0;
  const V2i biased = (bits >> 52) & V2i{0x7ff, 0x7ff};
  V2i exit = ~((V2i)(w0 > zero) & (biased >= V2i{1023 - 511, 1023 - 511}) &
               (biased <= V2i{1023 + 511, 1023 + 511}));
  const V2d inv = (V2d)((V2i{2046, 2046} << 52) - bits), inv2 = inv * inv;

  const V2d w2 = w0 * w0;
  const V2d mu0 = m0, mu1 = m1 * w0, mu2 = m2 * w2, mu3 = m3 * (w2 * w0);
  V2d u00 = mu1, u01 = mu0, u10 = mu2, u11 = mu1;
  V2d s0 = vmax(vmax(zero, vabs(u00)), vabs(u01));
  s0 = pick((V2i)(s0 == zero), one, s0);
  V2d s1 = vmax(vmax(zero, vabs(u10)), vabs(u11));
  s1 = pick((V2i)(s1 == zero), one, s1);
  V2d best = vabs(u00) / s0;
  const V2d cand = vabs(u10) / s1;
  const V2i swapped = (V2i)(cand > best);
  best = pick(swapped, cand, best);
  const V2d t00 = u00, t01 = u01, t0 = s0;
  u00 = pick(swapped, u10, u00);
  u10 = pick(swapped, t00, u10);
  u01 = pick(swapped, u11, u01);
  u11 = pick(swapped, t01, u11);
  s0 = pick(swapped, s1, s0);
  s1 = pick(swapped, t0, s1);
  exit |= (V2i)(best < splat(1e-10));
  const V2d l10 = u10 / u00;
  u11 = pick((V2i)(l10 != zero), u11 - l10 * u01, u11);
  exit |= (V2i)(vabs(u11) / s1 < splat(1e-10));

  V2d y0 = pick(swapped, -mu3, -mu2), y1 = pick(swapped, -mu2, -mu3);
  y1 = y1 - l10 * y0;
  y1 = y1 / u11;
  y0 = y0 - u01 * y1;
  y0 = y0 / u00;
  const V2d n0 = mu0, n1 = (mu1 + y0 * mu0) * inv;
  const V2d d1 = y0 * inv, d2 = y1 * inv2;
  exit |= (V2i)(d2 == zero);

  const V2d disc = d1 * d1 - splat(4.0) * d2 * one;
  const V2i real = (V2i)(disc >= zero);
  V2d root = pick(real, disc, -disc);
  root = V2d{std::sqrt(root[0]), std::sqrt(root[1])};
  const V2d q = splat(-0.5) * (d1 + pick((V2i)(d1 >= zero), one, splat(-1.0)) * root);
  // One division per quotient pair of the two arms: real roots q / d2 and
  // 1 / q, complex ones -d1 / (2 d2) and sqrt(-disc) / (2 d2).
  const V2d twice = splat(2.0) * d2;
  const V2d first = pick(real, q, -d1) / pick(real, d2, twice);
  const V2d second = pick(real, one, root) / pick(real, q, twice);
  const V2c p0{first, pick(real, zero, second)};
  const V2c p1{pick(real, pick((V2i)(q != zero), second, zero), first),
               pick(real, zero, -second)};
  exit |= ~((V2i)(p0.re < zero) & (V2i)(p1.re < zero));

  const V2c czero{zero, zero};
  V2c r[2];
  const V2c poles[2] = {p0, p1};
  for (int k = 0; k < 2; ++k) {
    const V2c p = poles[k];
    V2c num = cmul(czero, p);
    num.re = num.re + n1;
    num = cmul(num, p);
    num.re = num.re + n0;
    V2c dden = cmul(czero, p);
    dden.re = dden.re + d2 * splat(2.0);
    dden = cmul(dden, p);
    dden.re = dden.re + d1 * one;
    exit |= (V2i)(dden.re == zero) & (V2i)(dden.im == zero);
    r[k] = cdiv(num, dden, exit);
  }
  const V2c h0 = cdiv(r[0], {zero - p0.re, zero - p0.im}, exit);
  const V2c h1 = cdiv(r[1], {zero - p1.re, zero - p1.im}, exit);
  // Window-bounded quotients: the residues and the DC gain are finite.
  const V2d dc = (zero + h0.re) + h1.re;

  store2(row[kP0Re] + i, p0.re);
  store2(row[kP0Im] + i, p0.im);
  store2(row[kP1Re] + i, p1.re);
  store2(row[kP1Im] + i, p1.im);
  store2(row[kR0Re] + i, r[0].re);
  store2(row[kR0Im] + i, r[0].im);
  store2(row[kR1Re] + i, r[1].re);
  store2(row[kR1Im] + i, r[1].im);
  store2(row[kDc] + i, dc);
  return exit;
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

std::complex<double> complex_quotient(std::complex<double> x, std::complex<double> y) {
  return quotient(x, y);
}

FitScratch::FitScratch(std::size_t order)
    : pade(order),
      lane(2 * order),
      block(kBlockRows * kBlockLanes),
      candidate(kBlockLanes) {
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

std::size_t fit_lanes(std::span<const double> moments, std::size_t stride, std::size_t count,
                      std::span<const unsigned char> ok, const RomOptions& opts,
                      FitScratch& s, RomSamples& out, std::size_t first,
                      std::span<health::FailClass> fail,
                      const std::function<void(std::size_t)>& on_fit) {
  const std::size_t nm = 2 * opts.order;
  const std::size_t slots = first + count;
  if (opts.order > s.pade.max_order)
    throw std::invalid_argument("fit_lanes: order exceeds the scratch's order");
  if (stride < count) throw std::invalid_argument("fit_lanes: stride smaller than count");
  if (count > 0 && nm > 0 && moments.size() < (nm - 1) * stride + count)
    throw std::invalid_argument("fit_lanes: moments span too small");
  if (ok.size() < count || fail.size() < count)
    throw std::invalid_argument("fit_lanes: ok/fail span too small");
  if (out.order.size() < slots || out.dc_gain.size() < slots ||
      out.poles.size() < slots * out.max_order || out.residues.size() < slots * out.max_order)
    throw std::invalid_argument("fit_lanes: RomSamples too small");

  // Lane p's fit, held in `s`, into its slot; then on_fit.
  const auto store = [&](std::size_t p) {
    const std::size_t slot = first + p;
    const std::size_t q = std::min(s.poles.size(), out.max_order);
    out.order[slot] = static_cast<std::uint8_t>(q);
    for (std::size_t j = 0; j < q; ++j) {
      out.poles[slot * out.max_order + j] = s.poles[j];
      out.residues[slot * out.max_order + j] = s.residues[j];
    }
    out.dc_gain[slot] = s.dc_gain;
    if (on_fit) on_fit(p);
  };
  const auto fit_scalar = [&](std::size_t p) {
    if (!ok[p]) {
      fail[p] = health::FailClass::kSingularY0;
      return;
    }
    bool finite = true;
    for (std::size_t k = 0; k < nm; ++k) {
      s.lane[k] = moments[k * stride + p];
      finite = finite && std::isfinite(s.lane[k]);
    }
    fail[p] = finite ? fit_lane(s.lane, opts, s) : health::FailClass::kNonFiniteEval;
    if (fail[p] == health::FailClass::kNone) store(p);
  };

  if (opts.order != 2 || !opts.allow_order_fallback || !opts.enforce_stability ||
      health::failpoints::enabled()) {
    for (std::size_t p = 0; p < count; ++p) fit_scalar(p);
    return 0;
  }

  double* row[kBlockRows];
  for (std::size_t r = 0; r < kBlockRows; ++r) row[r] = s.block.data() + r * kBlockLanes;
  unsigned char* const cand = s.candidate.data();
  const std::size_t mo = out.max_order, q = std::min<std::size_t>(2, mo);
  std::uint8_t* const order_out = out.order.data();
  std::complex<double>* const poles_out = out.poles.data();
  std::complex<double>* const residues_out = out.residues.data();
  double* const dc_out = out.dc_gain.data();
  std::size_t fitted = 0;
  for (std::size_t c = 0; c < count; c += kBlockLanes) {
    const std::size_t w = std::min(kBlockLanes, count - c);
    // Pass 1: gather, the ok/finite mask and moment_scale.
    for (std::size_t i = 0; i < w; ++i) {
      const std::size_t p = c + i;
      const double m[4] = {moments[p], moments[stride + p], moments[2 * stride + p],
                           moments[3 * stride + p]};
      for (std::size_t k = 0; k < 4; ++k) row[kM0 + k][i] = m[k];
      cand[i] = (ok[p] != 0) & std::isfinite(m[0]) & std::isfinite(m[1]) &
                std::isfinite(m[2]) & std::isfinite(m[3]);
      row[kW0][i] = moment_scale(m);
    }
    // Pass 2: the two-lane kernel over whole pairs (an odd chunk's last
    // pair reads a stale lane and ignores it).
    std::int64_t leave[kBlockLanes];
    for (std::size_t i = 0; i < w; i += 2) {
      const V2i exit = fit_order2_pair(row, i);
      std::memcpy(leave + i, &exit, sizeof exit);
    }
    // Pass 3: store the kernel's fits; a lane it left is redone by
    // fit_order2, and one off the common path goes to fit_lane, in lane order.
    for (std::size_t i = 0; i < w; ++i) {
      const std::size_t p = c + i;
      Order2Fit f;
      if (!cand[i]) {
        fit_scalar(p);
        continue;
      }
      if (!leave[i]) {
        f = {{{row[kP0Re][i], row[kP0Im][i]}, {row[kP1Re][i], row[kP1Im][i]}},
             {{row[kR0Re][i], row[kR0Im][i]}, {row[kR1Re][i], row[kR1Im][i]}},
             row[kDc][i]};
      } else if (!fit_order2(row[kM0][i], row[kM1][i], row[kM2][i], row[kM3][i], row[kW0][i],
                             f)) {
        fit_scalar(p);
        continue;
      }
      ++fitted;
      fail[p] = health::FailClass::kNone;
      const std::size_t slot = first + p;
      order_out[slot] = static_cast<std::uint8_t>(q);
      for (std::size_t j = 0; j < q; ++j) {
        poles_out[slot * mo + j] = f.poles[j];
        residues_out[slot * mo + j] = f.residues[j];
      }
      dc_out[slot] = f.dc_gain;
      if (!on_fit) continue;
      for (std::size_t k = 0; k < 4; ++k) s.lane[k] = row[kM0 + k][i];
      s.pade.order = 2;
      s.poles.assign(f.poles, f.poles + 2);
      s.residues.assign(f.residues, f.residues + 2);
      s.direct = 0.0;
      s.dc_gain = f.dc_gain;
      on_fit(p);
    }
  }
  return fitted;
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
