#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "awe/awe.hpp"
#include "awe/pade.hpp"
#include "awe/rom.hpp"
#include "circuits/coupled_lines.hpp"
#include "circuits/fig1_rc.hpp"
#include "circuits/opamp741.hpp"
#include "core/awesymbolic.hpp"
#include "engine/sweep.hpp"
#include "health/failpoints.hpp"
#include "health/status.hpp"
#include "testing/netlist_gen.hpp"

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

// -- fit_lanes' order-2 block path vs the scalar fit_lane -----------------

using Lane = std::array<double, 4>;

/// Order-2 moment lanes with their ok flags, gathered from every source the
/// block path must agree with fit_lane on.
struct LanePool {
  std::vector<Lane> lanes;
  std::vector<unsigned char> ok;
  void add(const Lane& m, unsigned char lane_ok = 1) {
    lanes.push_back(m);
    ok.push_back(lane_ok);
  }
};

/// Adds the moments of a 1-thread strict sweep of `model` over `pts`.
void add_sweep_lanes(LanePool& pool, const core::CompiledModel& model, std::vector<double> pts,
                     std::size_t n) {
  sweep::SweepOptions opts;
  opts.threads = 1;
  const sweep::SweepResult r = sweep::run_sweep(model, std::move(pts), n, opts);
  for (std::size_t p = 0; p < n; ++p)
    pool.add({r.moment(0, p), r.moment(1, p), r.moment(2, p), r.moment(3, p)}, r.ok[p]);
}

core::CompiledModel opamp_model() {
  const auto amp = circuits::make_opamp741();
  return core::CompiledModel::build(
      amp.netlist,
      {circuits::Opamp741Circuit::kSymbolGout, circuits::Opamp741Circuit::kSymbolCcomp},
      circuits::Opamp741Circuit::kInput, amp.out, {.order = 2});
}

void add_opamp_lanes(LanePool& pool, std::size_t n) {
  const circuits::Opamp741Values nominal;
  const std::vector<sweep::Distribution> dists{
      sweep::Distribution::lognormal(nominal.gout_q14, 1.0),
      sweep::Distribution::lognormal(nominal.c_comp, 1.0)};
  add_sweep_lanes(pool, opamp_model(), sweep::sample_points(dists, n, 741), n);
}

/// The crosstalk output of a 2 x 200-segment coupled-line pair: m0 == 0 on
/// every lane, a few complex pole pairs.
void add_crosstalk_lanes(LanePool& pool, std::size_t n) {
  circuits::CoupledLineValues v;
  v.segments = 200;
  const auto lines = circuits::make_coupled_lines(v);
  const auto model = core::CompiledModel::build(
      lines.netlist, {"rdrv1", "rdrv2", "cload1", "cload2"},
      circuits::CoupledLinesCircuit::kInput, lines.line2_out, {.order = 2});
  const std::vector<sweep::Distribution> dists{
      sweep::Distribution::lognormal(v.r_driver, 0.5),
      sweep::Distribution::lognormal(v.r_driver, 0.5),
      sweep::Distribution::lognormal(v.c_load, 0.5),
      sweep::Distribution::lognormal(v.c_load, 0.5)};
  add_sweep_lanes(pool, model, sweep::sample_points(dists, n, 200), n);
}

/// Seeded generated decks, `per_deck` points each around their element values.
void add_generated_lanes(LanePool& pool, std::size_t decks, std::size_t per_deck) {
  std::size_t built = 0;
  for (std::uint64_t i = 0; built < decks && i < 10 * decks; ++i) {
    testing::GenOptions gen;
    gen.seed = testing::case_seed(20261017, i);
    const auto deck = testing::generate_deck(gen);
    const auto out = deck.parsed.netlist.find_node(deck.parsed.output_node);
    ASSERT_TRUE(out) << deck.text;
    std::optional<core::CompiledModel> model;
    try {
      model = core::CompiledModel::build(deck.parsed.netlist, deck.parsed.symbol_elements,
                                         deck.parsed.input_source, *out, {.order = 2});
    } catch (const std::exception&) {
      continue;  // a deck the symbolic build rejects has no lanes to fit
    }
    std::vector<sweep::Distribution> dists;
    for (const auto& name : model->symbol_names()) {
      const double value =
          deck.parsed.netlist.elements()[*deck.parsed.netlist.find_element(name)].value;
      dists.push_back(sweep::Distribution::lognormal(std::abs(value), 0.5));
    }
    add_sweep_lanes(pool, *model, sweep::sample_points(dists, per_deck, i), per_deck);
    ++built;
  }
  EXPECT_EQ(built, decks);
}

/// Every tuple over {0, +-1/2, +-1, +-2, +-4} at a few scales: exact small
/// moments hit the exact special cases (singular Hankel, b_2 == 0, a zero
/// discriminant, repeated poles, zeros in every slot).
void add_grid_lanes(LanePool& pool) {
  const double v[] = {0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 4.0, -4.0};
  for (const double scale : {1.0, 0x1p-600, 0x1p600, 1e-9})
    for (const double a : v)
      for (const double b : v)
        for (const double c : v)
          for (const double d : v) pool.add({a * scale, b, c / scale, d * scale});
}

/// Seeded mutations of lanes already in the pool, plus hand-shaped cases.
void add_adversarial_lanes(LanePool& pool, std::size_t n) {
  std::mt19937_64 rng(17);
  const auto unit = [&] { return static_cast<double>(rng() >> 11) * 0x1p-53; };
  const auto pick = [&](std::size_t k) { return static_cast<std::size_t>(rng() % k); };
  const double inf = std::numeric_limits<double>::infinity();
  const std::size_t base = pool.lanes.size();
  for (std::size_t i = 0; i < n; ++i) {
    Lane m = pool.lanes[pick(base)];
    switch (pick(11)) {
      case 0:  // sign flips
        for (double& x : m)
          if (rng() & 1) x = -x;
        break;
      case 1:  // a (signed) zero in one slot
        m[pick(4)] = (rng() & 1) ? 0.0 : -0.0;
        break;
      case 2:  // exponent shift of +-600, of the lane or of one slot
        if (rng() & 1) {
          const int e = (rng() & 1) ? 600 : -600;
          for (double& x : m) x = std::ldexp(x, e);
        } else {
          m[pick(4)] = std::ldexp(m[pick(4)], (rng() & 1) ? 600 : -600);
        }
        break;
      case 3:  // a subnormal
        m[pick(4)] = std::bit_cast<double>((rng() & 0x800fffffffffffffULL) | 1);
        break;
      case 4: {  // inf / NaN
        const double bad[] = {inf, -inf, std::nan("")};
        m[pick(4)] = bad[pick(3)];
        break;
      }
      case 5:  // random bit patterns
        for (double& x : m) x = std::bit_cast<double>(rng());
        break;
      case 6:  // near-singular Hankel: m1^2 ~ m0 m2
        if (m[0] != 0.0) {
          const double eps[] = {0.0, 1e-16, 1e-12, 1e-9};
          m[2] = m[1] * m[1] / m[0] * (1.0 + eps[pick(4)] * (unit() - 0.5));
        }
        break;
      case 7: {  // a double pole: 1/(1 + s/a)^2 scaled, zero discriminant up to rounding
        const double a = std::ldexp(1.0 + pick(8), static_cast<int>(pick(60)) - 30);
        m = {1.0, -2.0 / a, 3.0 / (a * a), -4.0 / (a * a * a)};
        break;
      }
      case 8: {  // b_2 == 0: a first-order rational function
        const auto r = rational_moments({1.0 + pick(4), 1.0 + pick(4), 0.0},
                                        {1.0 + pick(4), 0.0}, 4);
        std::copy(r.begin(), r.end(), m.begin());
        break;
      }
      case 9: {  // a right-half-plane pole
        const double p1 = -std::ldexp(1.0 + unit(), static_cast<int>(pick(40))),
                     p2 = std::ldexp(1.0 + unit(), static_cast<int>(pick(40)));
        const auto r = moments_of_poles({{p1, 0}, {p2, 0}}, {{-p1, 0}, {unit() * p2, 0}}, 4);
        std::copy(r.begin(), r.end(), m.begin());
        break;
      }
      default:  // a stable complex pair
      {
        const double re = -std::ldexp(1.0 + unit(), static_cast<int>(pick(40))),
                     im = re * (4.0 * unit() - 2.0);
        const auto r = moments_of_poles({{re, im}, {re, -im}}, {{-re, im}, {-re, -im}}, 4);
        std::copy(r.begin(), r.end(), m.begin());
        break;
      }
    }
    pool.add(m);
  }
}

/// Why the order-2 block path hands a lane to fit_lane (or kCommon when it
/// does not), from the scalar pieces.
enum Route : std::size_t {
  kCommon,
  kNotOk,
  kNonFiniteMoment,
  kScaleOutOfRange,
  kInfeasible,
  kTrailingZero,
  kZeroDerivative,
  kUnstable,
  kNonFiniteFit,
  kRoutes
};

/// moment_scale of finite moments: 2^e, e the mean binary exponent
/// difference of the consecutive nonzero pairs, rounded half up.
double moment_scale_of(const Lane& m) {
  int sum = 0, n = 0;
  for (std::size_t k = 0; k < 3; ++k)
    if (m[k] != 0.0 && m[k + 1] != 0.0) {
      sum += std::ilogb(m[k]) - std::ilogb(m[k + 1]);
      ++n;
    }
  return n == 0 ? 1.0 : std::ldexp(1.0, static_cast<int>(std::floor((2.0 * sum + n) / (2 * n))));
}

Route route_of(const Lane& m, unsigned char ok, bool& zero_disc) {
  zero_disc = false;
  if (!ok) return kNotOk;
  for (const double x : m)
    if (!std::isfinite(x)) return kNonFiniteMoment;
  const double w0 = moment_scale_of(m);
  if (!std::isfinite(w0) || w0 == 0.0) return kScaleOutOfRange;
  if (max_feasible_order(m) < 2) return kInfeasible;
  PadeScratch ps(2);
  const health::FailClass f = pade_lane(m, 2, /*allow_fallback=*/true, ps);
  const double d1 = ps.denominator[1], d2 = ps.denominator[2];
  if (d2 == 0.0) return kTrailingZero;
  zero_disc = d1 * d1 - 4.0 * d2 == 0.0;
  if (f != health::FailClass::kNone) return kZeroDerivative;
  for (const auto& p : ps.poles)
    if (!(p.real() < 0.0)) return kUnstable;
  FitScratch fs(2);
  if (fit_lane(m, {.order = 2}, fs) != health::FailClass::kNone) return kNonFiniteFit;
  bool finite = std::isfinite(fs.dc_gain);
  for (const auto& r : fs.residues) finite = finite && std::isfinite(r.real()) &&
                                             std::isfinite(r.imag());
  return finite ? kCommon : kNonFiniteFit;
}

/// The pre-block-path fit_lanes: a per-lane fit_lane loop.
void fit_lanes_scalar(std::span<const double> moments, std::size_t stride, std::size_t count,
                      std::span<const unsigned char> ok, const RomOptions& opts,
                      FitScratch& s, RomSamples& out, std::size_t first,
                      std::span<health::FailClass> fail,
                      const std::function<void(std::size_t)>& on_fit) {
  for (std::size_t p = 0; p < count; ++p) {
    if (!ok[p]) {
      fail[p] = health::FailClass::kSingularY0;
      continue;
    }
    bool finite = true;
    for (std::size_t k = 0; k < 2 * opts.order; ++k) {
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
    on_fit(p);
  }
}

RomSamples nan_samples(std::size_t n, std::size_t max_order) {
  const double nan = std::nan("");
  RomSamples rs;
  rs.max_order = max_order;
  rs.order.assign(n, 0);
  rs.poles.assign(n * max_order, {nan, nan});
  rs.residues.assign(n * max_order, {nan, nan});
  rs.dc_gain.assign(n, nan);
  return rs;
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// What on_fit saw of the scratch's model, as raw bits.
void record_model(const FitScratch& s, std::size_t p, std::vector<std::uint64_t>& log) {
  const ReducedOrderModel rom = s.model(s.lane);
  log.push_back(p);
  log.push_back(rom.order());
  for (std::size_t j = 0; j < rom.order(); ++j) {
    log.push_back(std::bit_cast<std::uint64_t>(rom.poles()[j].real()));
    log.push_back(std::bit_cast<std::uint64_t>(rom.poles()[j].imag()));
    log.push_back(std::bit_cast<std::uint64_t>(rom.residues()[j].real()));
    log.push_back(std::bit_cast<std::uint64_t>(rom.residues()[j].imag()));
  }
  log.push_back(std::bit_cast<std::uint64_t>(rom.direct()));
  for (const double m : rom.moments()) log.push_back(std::bit_cast<std::uint64_t>(m));
}

// The order-2 block path must give every lane fit_lane's bits: every
// RomSamples slot (signed zeros and the NaN padding of unfitted slots
// included), every FailClass and the model on_fit sees, over >= 200k lanes
// from the 741, the coupled-line crosstalk output, generated decks and
// seeded adversarial inputs, at block counts around the chunk size and
// with holes in ok[].
TEST(FitLanes, Order2BlockMatchesScalarFitLane) {
  ASSERT_FALSE(health::failpoints::enabled());
  LanePool pool;
  add_opamp_lanes(pool, 100000);
  const std::size_t xtalk_begin = pool.lanes.size();
  add_crosstalk_lanes(pool, 2 * 200 * 50);
  const std::size_t xtalk_end = pool.lanes.size();
  add_generated_lanes(pool, 40, 500);
  add_grid_lanes(pool);
  add_adversarial_lanes(pool, 50000);
  const std::size_t n = pool.lanes.size();
  ASSERT_GE(n, 200000u);

  // Holes in ok[].
  std::mt19937_64 rng(2026);
  for (std::size_t p = 0; p < n; ++p)
    if (rng() % 16 == 0) pool.ok[p] = 0;

  std::array<std::size_t, kRoutes> routes{};
  std::size_t zero_discs = 0;
  for (std::size_t p = 0; p < n; ++p) {
    bool zero_disc = false;
    ++routes[route_of(pool.lanes[p], pool.ok[p], zero_disc)];
    zero_discs += zero_disc;
  }
  for (std::size_t r = 0; r < kRoutes; ++r) EXPECT_GT(routes[r], 0u) << "route " << r;
  EXPECT_GT(zero_discs, 0u);

  const RomOptions ropts{.order = 2};
  RomSamples block = nan_samples(n, 2), scalar = nan_samples(n, 2);
  std::vector<health::FailClass> block_fail(n), scalar_fail(n);
  FitScratch block_s(2), scalar_s(2);
  std::vector<std::uint64_t> block_log, scalar_log;
  const std::size_t counts[] = {1, 63, 64, 65, 200};
  std::vector<double> soa;
  std::size_t fitted = 0, xtalk_fitted = 0, xtalk_ok = 0;
  for (std::size_t first = 0, call = 0; first < n; ++call) {
    const std::size_t count = std::min(counts[call % 5], n - first);
    const std::size_t stride = count + call % 3;
    soa.assign(4 * stride, std::nan(""));
    for (std::size_t p = 0; p < count; ++p)
      for (std::size_t k = 0; k < 4; ++k) soa[k * stride + p] = pool.lanes[first + p][k];
    const std::span<const unsigned char> ok(pool.ok.data() + first, count);
    const std::size_t f = fit_lanes(
        soa, stride, count, ok, ropts, block_s, block, first,
        std::span<health::FailClass>(block_fail.data() + first, count),
        [&](std::size_t p) { record_model(block_s, first + p, block_log); });
    fit_lanes_scalar(soa, stride, count, ok, ropts, scalar_s, scalar, first,
                     std::span<health::FailClass>(scalar_fail.data() + first, count),
                     [&](std::size_t p) { record_model(scalar_s, first + p, scalar_log); });
    fitted += f;
    if (first >= xtalk_begin && first + count <= xtalk_end) {
      xtalk_fitted += f;
      for (std::size_t p = 0; p < count; ++p) xtalk_ok += pool.ok[first + p];
    }
    first += count;
  }

  EXPECT_TRUE(same_bytes(block.order, scalar.order));
  EXPECT_TRUE(same_bytes(block.poles, scalar.poles));
  EXPECT_TRUE(same_bytes(block.residues, scalar.residues));
  EXPECT_TRUE(same_bytes(block.dc_gain, scalar.dc_gain));
  EXPECT_TRUE(block_fail == scalar_fail);
  EXPECT_TRUE(block_log == scalar_log);
  for (std::size_t p = 0, shown = 0; p < n && shown < 5; ++p) {
    const bool same =
        block.order[p] == scalar.order[p] && block_fail[p] == scalar_fail[p] &&
        std::memcmp(&block.poles[2 * p], &scalar.poles[2 * p], 2 * sizeof(block.poles[0])) ==
            0 &&
        std::memcmp(&block.residues[2 * p], &scalar.residues[2 * p],
                    2 * sizeof(block.residues[0])) == 0 &&
        std::memcmp(&block.dc_gain[p], &scalar.dc_gain[p], sizeof(double)) == 0;
    if (same) continue;
    ++shown;
    ADD_FAILURE() << "lane " << p << " differs: moments " << pool.lanes[p][0] << " "
                  << pool.lanes[p][1] << " " << pool.lanes[p][2] << " " << pool.lanes[p][3];
  }

  // The block path fitted every common-path lane, the crosstalk lanes
  // (m0 == 0) among them, and only those.
  EXPECT_EQ(fitted, routes[kCommon]);
  for (std::size_t p = xtalk_begin; p < xtalk_end; ++p)
    if (pool.ok[p]) {
      ASSERT_EQ(pool.lanes[p][0], 0.0);
    }
  EXPECT_EQ(xtalk_fitted, xtalk_ok);
  std::size_t xtalk_complex = 0;
  for (std::size_t p = xtalk_begin; p < xtalk_end; ++p)
    xtalk_complex += scalar.order[p] == 2 && scalar.poles[2 * p].imag() != 0.0;
  EXPECT_GT(xtalk_complex, 0u);
}

// A pass_predicate sweep on the block path gives the same pass flags and
// ROM samples as the same sweep on the scalar path (any armed failpoint
// turns the block path off).
TEST(FitLanes, Order2BlockPassPredicateSweepMatchesScalarPath) {
  const core::CompiledModel model = opamp_model();
  const circuits::Opamp741Values nominal;
  const std::vector<sweep::Distribution> dists{
      sweep::Distribution::lognormal(nominal.gout_q14, 1.0),
      sweep::Distribution::lognormal(nominal.c_comp, 1.0)};
  const std::size_t n = 4096;
  const std::vector<double> pts = sweep::sample_points(dists, n, 99);
  // Pass when the dominant pole is slower than the sample's median one.
  sweep::SweepOptions opts;
  opts.threads = 1;
  opts.with_rom = true;
  const sweep::SweepResult probe = sweep::run_sweep(model, pts, n, opts);
  std::vector<double> dom;
  for (std::size_t p = 0; p < n; ++p)
    if (probe.rom->order[p] == 2)
      dom.push_back(std::min(std::abs(probe.rom->poles[2 * p].real()),
                             std::abs(probe.rom->poles[2 * p + 1].real())));
  ASSERT_FALSE(dom.empty());
  std::nth_element(dom.begin(), dom.begin() + dom.size() / 2, dom.end());
  const double median = dom[dom.size() / 2];
  opts.pass_predicate = [median](const ReducedOrderModel& rom) {
    const auto p = rom.dominant_pole();
    return p && std::abs(p->real()) < median && rom.moments().size() == 4;
  };
  ASSERT_FALSE(health::failpoints::enabled());
  const sweep::SweepResult block = sweep::run_sweep(model, pts, n, opts);
  health::failpoints::arm(health::failpoints::sites::kLuSingular, "nth:1000000000000");
  const sweep::SweepResult scalar = sweep::run_sweep(model, pts, n, opts);
  health::failpoints::reset();
  EXPECT_GT(block.pass_count, n / 4);
  EXPECT_LT(block.pass_count, 3 * n / 4);
  EXPECT_TRUE(same_bytes(block.pass, scalar.pass));
  EXPECT_TRUE(same_bytes(block.rom->order, scalar.rom->order));
  EXPECT_TRUE(same_bytes(block.rom->poles, scalar.rom->poles));
  EXPECT_TRUE(same_bytes(block.rom->residues, scalar.rom->residues));
  EXPECT_TRUE(same_bytes(block.rom->dc_gain, scalar.rom->dc_gain));
  EXPECT_TRUE(same_bytes(block.ladder_stage, scalar.ladder_stage));
}

// The block path's inline complex division equals operator/ (libgcc's
// __divdc3) bit for bit: inside its window, at the window's edges and, by
// falling back, outside it.
TEST(FitLanes, ComplexQuotientMatchesOperatorDivide) {
  std::mt19937_64 rng(1992);
  const double edges[] = {0x1p-250,
                          0x1p250,
                          std::nextafter(0x1p-250, 0.0),
                          std::nextafter(0x1p-250, 1.0),
                          std::nextafter(0x1p250, 0.0),
                          std::nextafter(0x1p250, 1e300),
                          0.0,
                          1.0,
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::infinity(),
                          std::nan("")};
  const auto part = [&](int mode) {
    const std::uint64_t r = rng();
    const double sign = (r & 1) ? -1.0 : 1.0;
    switch (mode) {
      case 0:  // inside the window, with zeros
        if ((r >> 1) % 8 == 0) return sign * 0.0;
        return sign * std::ldexp(1.0 + static_cast<double>(r >> 12) * 0x1p-52,
                                 static_cast<int>((r >> 2) % 500) - 250);
      case 1:  // the window's edges
        return sign * edges[(r >> 1) % std::size(edges)];
      default:  // any finite or non-finite double
        return std::bit_cast<double>(r);
    }
  };
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < 10'000'000; ++i) {
    const int mode = i % 10 < 8 ? 0 : static_cast<int>(i % 10) - 7;
    // Mix the modes across the four parts so edge values meet in-window ones.
    const std::complex<double> x{part(mode), part(i % 3 == 0 ? mode : 0)};
    const std::complex<double> y{part(i % 5 == 0 ? 0 : mode), part(mode)};
    const std::complex<double> want = x / y, got = complex_quotient(x, y);
    if (!same_bits(want, got) && ++mismatches <= 5)
      ADD_FAILURE() << std::hexfloat << x << " / " << y << ": " << got << " vs " << want;
  }
  EXPECT_EQ(mismatches, 0u);
}

// -- time scaling by a power of two ----------------------------------------

using Lane8 = std::array<double, 8>;

/// The first 8 moments (order 4) of a 1-thread strict sweep of `model`.
void add_sweep_lanes8(std::vector<Lane8>& lanes, std::vector<unsigned char>& ok,
                      const core::CompiledModel& model, std::vector<double> pts,
                      std::size_t n) {
  sweep::SweepOptions opts;
  opts.threads = 1;
  const sweep::SweepResult r = sweep::run_sweep(model, std::move(pts), n, opts);
  for (std::size_t p = 0; p < n; ++p) {
    Lane8 m;
    for (std::size_t k = 0; k < 8; ++k) m[k] = r.moment(k, p);
    lanes.push_back(m);
    ok.push_back(r.ok[p]);
  }
}

/// One lane's fit: its verdict and, on success, the model's bits.
struct LaneFit {
  health::FailClass fail = health::FailClass::kNone;
  std::vector<std::complex<double>> poles, residues;
  double dc_gain = 0.0;
};

/// Every lane fitted at `order` after time scaling by 2^j (moment k times
/// 2^(-jk)), through fit_lanes (`block`) or a fit_lane per lane.
std::vector<LaneFit> fit_scaled(const std::vector<Lane8>& lanes,
                                const std::vector<unsigned char>& ok, std::size_t order,
                                int j, bool block) {
  const std::size_t n = lanes.size(), nm = 2 * order;
  const RomOptions ropts{.order = order};
  std::vector<double> soa(nm * n);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t k = 0; k < nm; ++k)
      soa[k * n + p] = std::ldexp(lanes[p][k], -j * static_cast<int>(k));
  std::vector<LaneFit> fits(n);
  FitScratch s(order);
  if (block) {
    RomSamples rs = nan_samples(n, order);
    std::vector<health::FailClass> fail(n);
    fit_lanes(soa, n, n, ok, ropts, s, rs, 0, fail);
    for (std::size_t p = 0; p < n; ++p) {
      fits[p].fail = fail[p];
      if (fail[p] != health::FailClass::kNone) continue;
      fits[p].poles.assign(&rs.poles[p * order], &rs.poles[p * order] + rs.order[p]);
      fits[p].residues.assign(&rs.residues[p * order], &rs.residues[p * order] + rs.order[p]);
      fits[p].dc_gain = rs.dc_gain[p];
    }
    return fits;
  }
  std::vector<double> lane(nm);
  for (std::size_t p = 0; p < n; ++p) {
    if (!ok[p]) continue;
    for (std::size_t k = 0; k < nm; ++k) lane[k] = soa[k * n + p];
    fits[p].fail = fit_lane(lane, ropts, s);
    if (fits[p].fail != health::FailClass::kNone) continue;
    fits[p].poles.assign(s.poles.begin(), s.poles.end());
    fits[p].residues.assign(s.residues.begin(), s.residues.end());
    fits[p].dc_gain = s.dc_gain;
  }
  return fits;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// `got` is `ref` time-scaled by 2^j exactly: the same verdict, poles and
/// residues times 2^j, the same DC gain.
bool scaled_exactly(const LaneFit& ref, const LaneFit& got, int j) {
  const auto times = [j](std::complex<double> z) {
    return std::complex<double>{std::ldexp(z.real(), j), std::ldexp(z.imag(), j)};
  };
  if (got.fail != ref.fail || got.poles.size() != ref.poles.size()) return false;
  for (std::size_t i = 0; i < ref.poles.size(); ++i)
    if (!same_bits(got.poles[i], times(ref.poles[i])) ||
        !same_bits(got.residues[i], times(ref.residues[i])))
      return false;
  return same_bits(got.dc_gain, ref.dc_gain);
}

// Time scaling by 2^j, H(s) -> H(s 2^-j), multiplies moment k by 2^(-jk).
// moment_scale then moves by exactly 2^j and scales nothing inexactly, so
// the order-1 and order-2 fits are exactly equivariant, through fit_lanes
// (the order-2 block path) and fit_lane alike: the same verdict, poles and
// residues times 2^j, the same DC gain, for j in [-30, 30] on the 741 and
// on the coupled-line crosstalk output (m0 == 0: one pair fewer counts,
// and the mean exponent difference ties).  Orders 3 and 4, whose
// companion eigensolve need not be equivariant, are only reported.
TEST(FitLanes, PowerOfTwoTimeScalingIsExact) {
  ASSERT_FALSE(health::failpoints::enabled());
  std::vector<Lane8> lanes;
  std::vector<unsigned char> ok;
  const std::size_t per_circuit = 512;
  {
    const auto amp = circuits::make_opamp741();
    const auto model = core::CompiledModel::build(
        amp.netlist,
        {circuits::Opamp741Circuit::kSymbolGout, circuits::Opamp741Circuit::kSymbolCcomp},
        circuits::Opamp741Circuit::kInput, amp.out, {.order = 4});
    const circuits::Opamp741Values nominal;
    const std::vector<sweep::Distribution> dists{
        sweep::Distribution::lognormal(nominal.gout_q14, 1.0),
        sweep::Distribution::lognormal(nominal.c_comp, 1.0)};
    add_sweep_lanes8(lanes, ok, model, sweep::sample_points(dists, per_circuit, 741),
                     per_circuit);
  }
  {
    circuits::CoupledLineValues v;
    v.segments = 200;
    const auto lines = circuits::make_coupled_lines(v);
    const auto model = core::CompiledModel::build(
        lines.netlist, {"rdrv1", "rdrv2", "cload1", "cload2"},
        circuits::CoupledLinesCircuit::kInput, lines.line2_out, {.order = 4});
    const std::vector<sweep::Distribution> dists{
        sweep::Distribution::lognormal(v.r_driver, 0.5),
        sweep::Distribution::lognormal(v.r_driver, 0.5),
        sweep::Distribution::lognormal(v.c_load, 0.5),
        sweep::Distribution::lognormal(v.c_load, 0.5)};
    add_sweep_lanes8(lanes, ok, model, sweep::sample_points(dists, per_circuit, 200),
                     per_circuit);
  }
  const std::size_t n = lanes.size();

  // The crosstalk lanes have m0 == 0, and at order 2 some of them tie:
  // an odd exponent difference over their two counted pairs.
  std::size_t ties = 0;
  for (std::size_t p = per_circuit; p < n; ++p) {
    ASSERT_EQ(lanes[p][0], 0.0);
    ties += ok[p] && (std::ilogb(lanes[p][1]) - std::ilogb(lanes[p][3])) % 2 != 0;
  }
  EXPECT_GT(ties, 0u);

  for (std::size_t order = 1; order <= 4; ++order) {
    for (const bool block : {true, false}) {
      SCOPED_TRACE("order " + std::to_string(order) + (block ? " fit_lanes" : " fit_lane"));
      const std::vector<LaneFit> ref = fit_scaled(lanes, ok, order, 0, block);
      std::size_t fitted = 0;
      for (const LaneFit& f : ref) fitted += f.fail == health::FailClass::kNone;
      EXPECT_GE(fitted, n / 2);  // order 1 fits no crosstalk lane (m0 == 0)
      std::size_t held = 0, shown = 0;
      for (int j = -30; j <= 30; ++j) {
        const std::vector<LaneFit> got = fit_scaled(lanes, ok, order, j, block);
        for (std::size_t p = 0; p < n; ++p) {
          if (scaled_exactly(ref[p], got[p], j)) {
            ++held;
          } else if (order <= 2 && shown++ < 5) {
            ADD_FAILURE() << "lane " << p << " at j = " << j << " is not scaled exactly";
          }
        }
      }
      const std::size_t total = 61 * n;
      if (order <= 2) {
        EXPECT_EQ(held, total);
      }
      std::printf("order %zu %-9s: %zu of %zu scaled lanes exact\n", order,
                  block ? "fit_lanes" : "fit_lane", held, total);
    }
  }
}

// moment_scale: a power of two that moves by exactly 2^j under time
// scaling (a subnormal moment included), and on non-finite moments the
// class (NaN, +inf, 0 or finite) of the geometric mean
// exp(mean log|m_k/m_{k+1}|) it replaced.
TEST(Pade, MomentScaleIsAnExactPowerOfTwo) {
  const std::vector<std::vector<double>> lanes{
      {1.0, -3e-6, 2e-11, -7e-17},
      {0.0, 5e-9, -4e-17, 1e-25},
      {1.0, 1.0, 1.0, 1.0},
      {0x1p-1070 * 3.0, 0x1p-1000, 1e-290, 2e-280},
      {2.5, 0.0, 3.0, 1e-9},
  };
  for (const auto& m : lanes) {
    const double w0 = moment_scale(m);
    int e = 0;
    EXPECT_EQ(std::frexp(w0, &e), 0.5);
    for (int j = -30; j <= 30; ++j) {
      std::vector<double> scaled(m.size());
      for (std::size_t k = 0; k < m.size(); ++k)
        scaled[k] = std::ldexp(m[k], -j * static_cast<int>(k));
      EXPECT_EQ(moment_scale(scaled), std::ldexp(w0, j)) << m[0] << " j = " << j;
    }
  }
  EXPECT_EQ(moment_scale(std::vector<double>{0.0, 1.0, 0.0, 5.0}), 1.0);  // no pair counts

  const double inf = std::numeric_limits<double>::infinity();
  const double values[] = {0.0, -0.0, 1.5, -3.0, 1e-5, inf, -inf, std::nan("")};
  const auto kind = [](double w) {
    return std::isnan(w) ? 0 : std::isinf(w) ? 1 : w == 0 ? 2 : 3;
  };
  std::size_t non_finite = 0;
  for (const double a : values)
    for (const double b : values)
      for (const double c : values)
        for (const double d : values) {
          const std::vector<double> m{a, b, c, d};
          double sum = 0.0;
          std::size_t n = 0;
          for (std::size_t k = 0; k < 3; ++k)
            if (m[k] != 0.0 && m[k + 1] != 0.0) {
              sum += std::log(std::abs(m[k] / m[k + 1]));
              ++n;
            }
          const double geometric = n == 0 ? 1.0 : std::exp(sum / static_cast<double>(n));
          non_finite += !std::isfinite(geometric) || geometric == 0.0;
          EXPECT_EQ(kind(moment_scale(m)), kind(geometric))
              << a << " " << b << " " << c << " " << d;
        }
  EXPECT_GT(non_finite, 0u);
}

// fit_lanes rejects, like pade_solve_batch, the shapes it would index out
// of bounds.
struct FitLanesShape {
  std::size_t count = 8, stride = 8;
  std::vector<double> moments = std::vector<double>(32, 1.0);
  std::vector<unsigned char> ok = std::vector<unsigned char>(8, 1);
  std::vector<health::FailClass> fail = std::vector<health::FailClass>(8);
  RomSamples out = nan_samples(8, 2);
  FitScratch scratch{2};
  RomOptions opts{.order = 2};
  void run() {
    fit_lanes(moments, stride, count, ok, opts, scratch, out, 0, fail);
  }
};

TEST(FitLanes, RejectsStrideBelowCount) {
  FitLanesShape sh;
  EXPECT_NO_THROW(sh.run());
  sh.stride = 7;
  EXPECT_THROW(sh.run(), std::invalid_argument);
}

TEST(FitLanes, RejectsShortMomentsSpan) {
  FitLanesShape sh;
  sh.stride = 9;
  sh.moments.resize(3 * 9 + 8);  // (2q - 1) * stride + count
  EXPECT_NO_THROW(sh.run());
  sh.moments.pop_back();
  EXPECT_THROW(sh.run(), std::invalid_argument);
}

TEST(FitLanes, RejectsShortOkOrFailSpan) {
  FitLanesShape sh;
  sh.ok.pop_back();
  EXPECT_THROW(sh.run(), std::invalid_argument);
  FitLanesShape sf;
  sf.fail.pop_back();
  EXPECT_THROW(sf.run(), std::invalid_argument);
}

TEST(FitLanes, RejectsShortRomSamples) {
  for (int field = 0; field < 4; ++field) {
    FitLanesShape sh;
    switch (field) {
      case 0: sh.out.order.pop_back(); break;
      case 1: sh.out.poles.pop_back(); break;
      case 2: sh.out.residues.pop_back(); break;
      default: sh.out.dc_gain.pop_back(); break;
    }
    EXPECT_THROW(sh.run(), std::invalid_argument) << "field " << field;
  }
}

TEST(FitLanes, RejectsOrderAboveScratch) {
  FitLanesShape sh;
  sh.opts.order = 3;
  sh.moments.resize(5 * 8 + 8);
  EXPECT_THROW(sh.run(), std::invalid_argument);
}

}  // namespace
}  // namespace awe::engine
