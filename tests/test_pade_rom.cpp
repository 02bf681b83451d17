#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "awe/awe.hpp"
#include "awe/pade.hpp"
#include "awe/rom.hpp"
#include "circuits/fig1_rc.hpp"
#include "core/awesymbolic.hpp"
#include "health/status.hpp"

namespace awe::engine {
namespace {

std::vector<double> moments_of_poles(const std::vector<std::complex<double>>& poles,
                                     const std::vector<std::complex<double>>& residues,
                                     std::size_t count) {
  // m_k = -sum_i r_i / p_i^{k+1}
  std::vector<double> m(count, 0.0);
  for (std::size_t k = 0; k < count; ++k) {
    std::complex<double> s{0, 0};
    for (std::size_t i = 0; i < poles.size(); ++i)
      s -= residues[i] / std::pow(poles[i], static_cast<double>(k + 1));
    m[k] = s.real();
  }
  return m;
}

TEST(Pade, RecoversExactSecondOrderSystem) {
  const std::vector<std::complex<double>> poles{{-1e6, 0}, {-5e7, 0}};
  const std::vector<std::complex<double>> residues{{2e6, 0}, {-1e7, 0}};
  const auto m = moments_of_poles(poles, residues, 4);
  const auto pade = pade_from_moments(m, 2);
  ASSERT_EQ(pade.poles.size(), 2u);
  // Both exact poles recovered.
  for (const auto& p : poles) {
    double best = 1e300;
    for (const auto& got : pade.poles) best = std::min(best, std::abs(got - p));
    EXPECT_LT(best, 1e-3 * std::abs(p));
  }
  // Residues too.
  for (std::size_t i = 0; i < 2; ++i) {
    double best = 1e300;
    for (std::size_t j = 0; j < 2; ++j)
      if (std::abs(pade.poles[j] - poles[i]) < 1e-2 * std::abs(poles[i]))
        best = std::min(best, std::abs(pade.residues[j] - residues[i]));
    EXPECT_LT(best, 1e-3 * std::abs(residues[i]));
  }
}

TEST(Pade, RecoversComplexPolePair) {
  const std::vector<std::complex<double>> poles{{-1e5, 3e5}, {-1e5, -3e5}};
  const std::vector<std::complex<double>> residues{{1e5, -2e4}, {1e5, 2e4}};
  const auto m = moments_of_poles(poles, residues, 4);
  const auto pade = pade_from_moments(m, 2);
  double best = 1e300;
  for (const auto& got : pade.poles) best = std::min(best, std::abs(got - poles[0]));
  EXPECT_LT(best, 1e-2 * std::abs(poles[0]));
}

TEST(Pade, InputValidation) {
  const std::vector<double> m{1.0, -1.0};
  EXPECT_THROW(pade_from_moments(m, 0), std::invalid_argument);
  EXPECT_THROW(pade_from_moments(m, 2), std::invalid_argument);
}

TEST(Pade, DegenerateMomentsRejected) {
  // Moments of a 1-pole system cannot support order 2 (singular Hankel).
  const std::vector<double> m{1.0, -1.0, 1.0, -1.0};
  EXPECT_THROW(pade_from_moments(m, 2), std::runtime_error);
  EXPECT_EQ(max_feasible_order(m), 1u);
}

TEST(Pade, MomentsPreservedByApproximant) {
  // The defining property: the Padé matches its own first 2q moments.
  auto fig = circuits::make_fig1(
      {.g1 = 1e-3, .g2 = 2e-3, .c1 = 1e-12, .c2 = 4e-12});
  const auto rom = run_awe(fig.netlist, circuits::Fig1Circuit::kInput, fig.v2,
                           {.order = 2});
  const auto& m = rom.moments();
  // Reconstruct moments from the pole/residue form.
  for (std::size_t k = 0; k < m.size(); ++k) {
    std::complex<double> s{0, 0};
    for (std::size_t i = 0; i < rom.poles().size(); ++i)
      s -= rom.residues()[i] / std::pow(rom.poles()[i], static_cast<double>(k + 1));
    EXPECT_NEAR(s.real(), m[k], 1e-6 * std::abs(m[k])) << "k=" << k;
    EXPECT_NEAR(s.imag(), 0.0, 1e-6 * std::abs(m[k]));
  }
}

TEST(Rom, Fig1ExactPolesAtFullOrder) {
  // Order 2 on a 2-pole circuit is exact: poles are the roots of eqn (5).
  circuits::Fig1Values vals{.g1 = 1e-3, .g2 = 1e-3, .c1 = 2e-12, .c2 = 1e-12};
  auto fig = circuits::make_fig1(vals);
  const auto ex = circuits::fig1_exact(vals);
  const auto rom = run_awe(fig.netlist, circuits::Fig1Circuit::kInput, fig.v2,
                           {.order = 2});
  ASSERT_EQ(rom.order(), 2u);
  // Roots of d2 s^2 + d1 s + d0.
  const double disc = ex.den_s1 * ex.den_s1 - 4.0 * ex.den_s2 * ex.den_s0;
  ASSERT_GT(disc, 0.0);
  const double p1 = (-ex.den_s1 + std::sqrt(disc)) / (2.0 * ex.den_s2);
  const double p2 = (-ex.den_s1 - std::sqrt(disc)) / (2.0 * ex.den_s2);
  for (const double p : {p1, p2}) {
    double best = 1e300;
    for (const auto& got : rom.poles()) best = std::min(best, std::abs(got - p));
    EXPECT_LT(best, 1e-4 * std::abs(p));
  }
  EXPECT_TRUE(rom.is_stable());
  EXPECT_NEAR(rom.dc_gain(), 1.0, 1e-9);
}

TEST(Rom, StepResponseLimits) {
  auto fig = circuits::make_fig1({.g1 = 1e-3, .g2 = 1e-3, .c1 = 1e-12, .c2 = 1e-12});
  const auto rom = run_awe(fig.netlist, circuits::Fig1Circuit::kInput, fig.v2,
                           {.order = 2});
  EXPECT_NEAR(rom.step_response(0.0), 0.0, 1e-9);
  EXPECT_NEAR(rom.step_response(1.0), rom.step_final_value(), 1e-6);
  const auto t50 = rom.step_crossing_time(0.5, 1e-6);
  ASSERT_TRUE(t50.has_value());
  EXPECT_GT(*t50, 0.0);
  EXPECT_NEAR(rom.step_response(*t50), 0.5 * rom.step_final_value(), 1e-6);
}

TEST(Rom, ImpulseIsDerivativeOfStep) {
  auto fig = circuits::make_fig1({.g1 = 1e-3, .g2 = 2e-3, .c1 = 3e-12, .c2 = 1e-12});
  const auto rom = run_awe(fig.netlist, circuits::Fig1Circuit::kInput, fig.v2,
                           {.order = 2});
  const double t = 2e-9, h = 1e-13;
  const double numeric = (rom.step_response(t + h) - rom.step_response(t - h)) / (2 * h);
  EXPECT_NEAR(rom.impulse_response(t), numeric, 1e-4 * std::abs(numeric));
}

TEST(Rom, FrequencyDomainMeasures) {
  auto fig = circuits::make_fig1({.g1 = 1e-3, .g2 = 1e-3, .c1 = 1e-12, .c2 = 1e-12});
  const auto rom = run_awe(fig.netlist, circuits::Fig1Circuit::kInput, fig.v2,
                           {.order = 2});
  EXPECT_NEAR(rom.dc_gain(), 1.0, 1e-9);
  // Unity-gain: |H(0)| = 1 exactly, low-pass -> crossing reported as 0.
  EXPECT_DOUBLE_EQ(rom.unity_gain_frequency(), 0.0);
  // Magnitude decreases with frequency for the low-pass.
  EXPECT_GT(rom.magnitude(1e6), rom.magnitude(1e9));
  // Phase lags.
  EXPECT_LT(rom.phase_deg(1e8), 0.0);
  const auto dom = rom.dominant_pole();
  ASSERT_TRUE(dom.has_value());
  EXPECT_LT(dom->real(), 0.0);
}

TEST(Rom, OrderFallbackOnDegenerateCircuit) {
  // Single-pole circuit, order-3 request: falls back to order 1.
  circuit::Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add_voltage_source("vin", in, circuit::kGround, 1.0);
  nl.add_resistor("r1", in, out, 1e3);
  nl.add_capacitor("c1", out, circuit::kGround, 1e-9);
  const auto rom = run_awe(nl, "vin", out, {.order = 3});
  EXPECT_EQ(rom.order(), 1u);
  EXPECT_NEAR(rom.poles()[0].real(), -1e6, 1e-2);
}

TEST(Rom, UnknownOutputNodeNameThrows) {
  auto fig = circuits::make_fig1();
  EXPECT_THROW(
      run_awe(fig.netlist, circuits::Fig1Circuit::kInput, std::string("nope"), {}),
      std::invalid_argument);
}

TEST(Rom, ShiftedRefitRemovesDirectTermFromM0) {
  // Sigma-domain moments of (1 + 3 sigma^2)/(1 - sigma^2): the order-3
  // Padé is exact with b_3 == 0, so it carries the direct term -3 beside
  // poles at sigma = +-1.  Shifted by s0 = 0.5 those land at s = 1.5
  // (dropped) and s = -0.5 (kept).  Power-of-two moments keep every step
  // exact.  The kept pole's residue re-fit must remove the direct term
  // from m_0, like from_moments does: m_0 - d = -r / p_sigma gives r = 4,
  // and the model then reproduces H(s0) = m_0.
  const std::vector<double> m{1.0, 0.0, 4.0, 0.0, 4.0, 0.0};
  const double s0 = 0.5;
  const auto rom = ReducedOrderModel::from_shifted_moments(m, {.order = 3}, s0);
  ASSERT_EQ(rom.order(), 1u);
  EXPECT_EQ(rom.direct(), -3.0);
  EXPECT_EQ(rom.poles()[0], std::complex<double>(-0.5, 0.0));
  EXPECT_EQ(rom.residues()[0], std::complex<double>(4.0, 0.0));
  EXPECT_EQ(rom.transfer({s0, 0.0}), std::complex<double>(m[0], 0.0));
}

TEST(SolveComplexDense, KnownSystem) {
  using C = std::complex<double>;
  // [1 i; -i 2] x = [1+i; 0]
  std::vector<C> a{C(1, 0), C(0, 1), C(0, -1), C(2, 0)};
  const auto x = solve_complex_dense(a, {C(1, 1), C(0, 0)});
  // Verify residual.
  const C r0 = C(1, 0) * x[0] + C(0, 1) * x[1] - C(1, 1);
  const C r1 = C(0, -1) * x[0] + C(2, 0) * x[1];
  EXPECT_LT(std::abs(r0), 1e-12);
  EXPECT_LT(std::abs(r1), 1e-12);
}

// -- lane kernel vs scalar fit --------------------------------------------

/// Moments of the rational function (a0 + a1 s + a2 s^2)/(1 + b1 s + b2 s^2)
/// by long division: exact for small integer coefficients.
std::vector<double> rational_moments(std::array<double, 3> a, std::array<double, 2> b,
                                     std::size_t count) {
  std::vector<double> m(count, 0.0);
  for (std::size_t k = 0; k < count; ++k) {
    double v = k < 3 ? a[k] : 0.0;
    if (k >= 1) v -= b[0] * m[k - 1];
    if (k >= 2) v -= b[1] * m[k - 2];
    m[k] = v;
  }
  return m;
}

struct LaneCase {
  const char* name;
  std::vector<double> moments;  // at least 8 (order 4)
  unsigned char ok = 1;
};

std::vector<LaneCase> hand_built_lanes() {
  const double inf = std::numeric_limits<double>::infinity();
  return {
      {"two real poles", moments_of_poles({{-1e6, 0}, {-5e7, 0}}, {{2e6, 0}, {-1e7, 0}}, 8)},
      {"complex pole pair",
       moments_of_poles({{-1e5, 3e5}, {-1e5, -3e5}}, {{1e5, -2e4}, {1e5, 2e4}}, 8)},
      // One pole: only q = 1 is feasible, so orders >= 2 fall back.
      {"order fallback", moments_of_poles({{-1e3, 0}}, {{1e3, 0}}, 8)},
      // A right-half-plane pole the stability filter drops and re-fits.
      {"unstable pole refit", moments_of_poles({{-1e4, 0}, {2e5, 0}}, {{1e4, 0}, {5e4, 0}}, 8)},
      // (1 + 2s)/(1 + s): the order-2 solve gives b_2 == 0 exactly, so the
      // fit carries a direct term.
      {"zero trailing denominator", rational_moments({1, 2, 0}, {1, 0}, 8)},
      // (1 + 3s^2)/(1 - s^2): poles at +-1, direct term -3.
      {"direct term and unstable pole", rational_moments({1, 0, 3}, {0, -1}, 8)},
      {"ok == 0", moments_of_poles({{-1e3, 0}}, {{1e3, 0}}, 8), 0},
      {"NaN moment", {1.0, std::nan(""), 1.0, -1.0, 1.0, -1.0, 1.0, -1.0}},
      {"infinite moment", {1.0, -1.0, inf, -1.0, 1.0, -1.0, 1.0, -1.0}},
  };
}

bool same_bits(std::complex<double> a, std::complex<double> b) {
  return std::bit_cast<std::uint64_t>(a.real()) == std::bit_cast<std::uint64_t>(b.real()) &&
         std::bit_cast<std::uint64_t>(a.imag()) == std::bit_cast<std::uint64_t>(b.imag());
}

/// SoA lanes: the hand-built cases followed by Fig. 1 moments over a spread
/// of element values (one with g2 == 0, so its evaluation fails).
struct Block {
  std::vector<std::string> names;
  std::vector<double> moments;  // moment k of lane p at [k*count + p]
  std::vector<unsigned char> ok;
  std::size_t count = 0;
};

Block make_block(std::size_t order) {
  Block blk;
  const auto lanes = hand_built_lanes();
  const std::size_t nm = 2 * order;
  auto fig = circuits::make_fig1();
  const auto model = core::CompiledModel::build(fig.netlist, {"g1", "g2", "c1", "c2"},
                                                circuits::Fig1Circuit::kInput, fig.v2,
                                                {.order = order});
  const std::size_t nfig = 12;
  std::vector<double> pts(4 * nfig);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t p = 0; p < nfig; ++p)
      pts[i * nfig + p] = std::pow(2.0, static_cast<double>((p * (i + 3)) % 7) - 3.0);
  pts[1 * nfig + 5] = 0.0;  // g2 == 0: det == 0, ok = 0
  std::vector<double> fig_m(nm * nfig);
  std::vector<unsigned char> fig_ok(nfig);
  auto ws = model.make_batch_workspace(nfig);
  model.moments_batch(pts, nfig, nfig, ws, fig_m, nfig, fig_ok);

  blk.count = lanes.size() + nfig;
  blk.moments.assign(nm * blk.count, 0.0);
  for (std::size_t p = 0; p < lanes.size(); ++p) {
    blk.names.push_back(lanes[p].name);
    blk.ok.push_back(lanes[p].ok);
    for (std::size_t k = 0; k < nm; ++k) blk.moments[k * blk.count + p] = lanes[p].moments[k];
  }
  for (std::size_t p = 0; p < nfig; ++p) {
    blk.names.push_back("fig1 lane " + std::to_string(p));
    blk.ok.push_back(fig_ok[p]);
    for (std::size_t k = 0; k < nm; ++k)
      blk.moments[k * blk.count + lanes.size() + p] = fig_m[k * nfig + p];
  }
  return blk;
}

// The lane-block fit (pade_solve_batch + from_pade, and fit_lanes straight
// into RomSamples slots) must reproduce the scalar from_moments bit for bit
// on every lane, fail with the class from_moments throws, and leave
// rejected lanes unfitted.
TEST(FitLanes, PadeBatchMatchesScalarBitForBit) {
  std::size_t fallbacks = 0, refits = 0, complex_pairs = 0, direct_terms = 0;
  for (std::size_t order = 1; order <= 4; ++order) {
    for (const bool allow_fallback : {true, false}) {
      SCOPED_TRACE("order " + std::to_string(order) +
                   (allow_fallback ? " with fallback" : " without fallback"));
      const Block blk = make_block(order);
      const std::size_t n = blk.count, nm = 2 * order;
      const RomOptions ropts{.order = order, .allow_order_fallback = allow_fallback};

      std::vector<PadeResult> batch(n);
      const std::size_t solved =
          pade_solve_batch(blk.moments, n, n, order, allow_fallback, blk.ok, batch);
      RomSamples rs;
      rs.max_order = order;
      rs.order.assign(n, 0);
      rs.poles.assign(n * order, {std::nan(""), 0.0});
      rs.residues.assign(n * order, {std::nan(""), 0.0});
      rs.dc_gain.assign(n, std::nan(""));
      FitScratch scratch(order);
      std::vector<health::FailClass> fail(n);
      fit_lanes(blk.moments, n, n, blk.ok, ropts, scratch, rs, 0, fail);

      std::size_t expect_solved = 0;
      std::vector<double> lane(nm);
      for (std::size_t p = 0; p < n; ++p) {
        SCOPED_TRACE(blk.names[p]);
        bool finite = true;
        for (std::size_t k = 0; k < nm; ++k) {
          lane[k] = blk.moments[k * n + p];
          finite = finite && std::isfinite(lane[k]);
        }
        if (!blk.ok[p] || !finite) {
          EXPECT_EQ(batch[p].order, 0u);
          EXPECT_EQ(fail[p], blk.ok[p] ? health::FailClass::kNonFiniteEval
                                       : health::FailClass::kSingularY0);
          EXPECT_EQ(rs.order[p], 0u);
          EXPECT_TRUE(std::isnan(rs.dc_gain[p]));
          continue;
        }
        std::optional<ReducedOrderModel> scalar;
        health::FailClass scalar_fail = health::FailClass::kNone;
        try {
          scalar = ReducedOrderModel::from_moments(lane, ropts);
        } catch (const health::FailError& e) {
          scalar_fail = e.fail_class();
        }
        EXPECT_EQ(fail[p], scalar_fail);
        if (batch[p].order > 0) {
          ++expect_solved;
          // The batched approximant is pade_from_moments at the same order.
          const PadeResult ref = pade_from_moments(lane, batch[p].order);
          EXPECT_EQ(ref.numerator, batch[p].numerator);
          EXPECT_EQ(ref.denominator, batch[p].denominator);
          std::optional<ReducedOrderModel> assembled;
          health::FailClass assembled_fail = health::FailClass::kNone;
          try {
            assembled = ReducedOrderModel::from_pade(batch[p], lane, ropts);
          } catch (const health::FailError& e) {
            assembled_fail = e.fail_class();
          }
          EXPECT_EQ(assembled_fail, scalar_fail);
          if (scalar && assembled) {
            ASSERT_EQ(assembled->order(), scalar->order());
            for (std::size_t j = 0; j < scalar->order(); ++j) {
              EXPECT_TRUE(same_bits(assembled->poles()[j], scalar->poles()[j]));
              EXPECT_TRUE(same_bits(assembled->residues()[j], scalar->residues()[j]));
            }
            EXPECT_EQ(std::bit_cast<std::uint64_t>(assembled->dc_gain()),
                      std::bit_cast<std::uint64_t>(scalar->dc_gain()));
            EXPECT_EQ(assembled->moments(), scalar->moments());
          }
        } else {
          EXPECT_NE(scalar_fail, health::FailClass::kNone);
        }
        if (!scalar) {
          EXPECT_EQ(rs.order[p], 0u);
          continue;
        }
        ASSERT_EQ(rs.order[p], scalar->order());
        for (std::size_t j = 0; j < scalar->order(); ++j) {
          EXPECT_TRUE(same_bits(rs.poles[p * order + j], scalar->poles()[j]));
          EXPECT_TRUE(same_bits(rs.residues[p * order + j], scalar->residues()[j]));
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(rs.dc_gain[p]),
                  std::bit_cast<std::uint64_t>(scalar->dc_gain()));
        const std::string name = blk.names[p];
        fallbacks += name == "order fallback" && order > 1 && scalar->order() == 1;
        refits += name == "unstable pole refit" && order == 2 && scalar->order() == 1;
        complex_pairs += scalar->order() == 2 && scalar->poles()[0].imag() != 0.0;
        direct_terms += scalar->direct() != 0.0;
      }
      EXPECT_EQ(solved, expect_solved);
    }
  }
  // The hand-built lanes really exercise the paths they are named after.
  EXPECT_GT(fallbacks, 0u);
  EXPECT_GT(refits, 0u);
  EXPECT_GT(complex_pairs, 0u);
  EXPECT_GT(direct_terms, 0u);
}

}  // namespace
}  // namespace awe::engine
