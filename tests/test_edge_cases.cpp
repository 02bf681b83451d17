// Assorted edge cases and failure paths across the stack.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "awe/ac.hpp"
#include "awe/awe.hpp"
#include "awe/pade.hpp"
#include "circuit/mna.hpp"
#include "circuits/fig1_rc.hpp"
#include "core/awesymbolic.hpp"
#include "linalg/eig.hpp"
#include "linalg/lu.hpp"
#include "linalg/polyroots.hpp"
#include "linalg/sparse_lu.hpp"
#include "symbolic/compile.hpp"
#include "transim/transim.hpp"

namespace awe {
namespace {

using circuit::kGround;
using circuit::Netlist;

TEST(EdgeCases, TinyMatrices) {
  // 1x1 systems everywhere.
  linalg::Matrix a{{4.0}};
  auto lu = linalg::LuFactorization::factor(a);
  ASSERT_TRUE(lu.has_value());
  EXPECT_DOUBLE_EQ(lu->solve({8.0})[0], 2.0);
  EXPECT_DOUBLE_EQ(lu->determinant(), 4.0);

  linalg::TripletMatrix t(1, 1);
  t.add(0, 0, 3.0);
  auto slu = linalg::SparseLu::factor(t.compress());
  ASSERT_TRUE(slu.has_value());
  EXPECT_DOUBLE_EQ(slu->solve({6.0})[0], 2.0);

  EXPECT_TRUE(linalg::eigenvalues(linalg::Matrix(0, 0)).empty());
  const auto e1 = linalg::eigenvalues(linalg::Matrix{{7.0}});
  ASSERT_EQ(e1.size(), 1u);
  EXPECT_DOUBLE_EQ(e1[0].real(), 7.0);
}

TEST(EdgeCases, Eigenvalues2x2DefectiveLike) {
  // Jordan-block-like matrix (defective): eigenvalues still correct.
  linalg::Matrix a{{2.0, 1.0}, {0.0, 2.0}};
  const auto e = linalg::eigenvalues(a);
  ASSERT_EQ(e.size(), 2u);
  EXPECT_NEAR(e[0].real(), 2.0, 1e-6);
  EXPECT_NEAR(e[1].real(), 2.0, 1e-6);
}

TEST(EdgeCases, PadeRepeatedPoleRecoversDenominator) {
  // Moments of 1/(1+s)^2: m_k = (-1)^k (k+1) — a repeated pole at -1.
  // The denominator must come out as (1+s)^2 = 1 + 2s + s^2; the residue
  // form either fails (exact repetition) or splits the pole into a
  // nearly-coincident pair whose rational evaluation stays faithful.
  std::vector<double> m{1.0, -2.0, 3.0, -4.0};
  engine::PadeScratch pade(2);
  if (engine::pade_lane(m, 2, /*allow_fallback=*/false, pade) != health::FailClass::kNone) {
    SUCCEED();  // exact repetition detected — also acceptable
    return;
  }
  const auto eval = [&](std::complex<double> s) {
    return linalg::poly_eval(pade.numerator, s) / linalg::poly_eval(pade.denominator, s);
  };
  ASSERT_EQ(pade.denominator.size(), 3u);
  EXPECT_NEAR(pade.denominator[1], 2.0, 1e-6);
  EXPECT_NEAR(pade.denominator[2], 1.0, 1e-6);
  EXPECT_NEAR(eval({0.0, 0.0}).real(), 1.0, 1e-9);
  EXPECT_NEAR(eval({1.0, 0.0}).real(), 0.25, 1e-6);
}

TEST(EdgeCases, MomentGeneratorZeroCount) {
  auto fig = circuits::make_fig1();
  engine::MomentGenerator gen(fig.netlist);
  EXPECT_TRUE(gen.transfer_moments("vin", fig.v2, 0).empty());
  EXPECT_TRUE(gen.state_moments("vin", 0).empty());
  EXPECT_TRUE(gen.adjoint_moments(fig.v2, 0).empty());
}

TEST(EdgeCases, TransimSineSteadyStateMatchesAc) {
  // Drive an RC with a sine, compare the settled amplitude to |H(jw)|.
  Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add_voltage_source("vin", in, kGround, 0.0);
  nl.add_resistor("r1", in, out, 1e3);
  nl.add_capacitor("c1", out, kGround, 1e-9);
  const double f = 200e3;

  transim::TransientSimulator sim(nl);
  sim.set_waveform("vin", transim::sine(1.0, f));
  transim::TransientOptions opts;
  opts.t_stop = 40e-6;  // many periods + settle
  opts.dt = 5e-9;
  const auto res = sim.run(opts);
  const auto v = res.node_voltage(sim.layout(), out);
  double amp = 0.0;
  for (std::size_t k = v.size() / 2; k < v.size(); ++k) amp = std::max(amp, std::abs(v[k]));

  engine::AcAnalysis ac(nl, "vin", out);
  EXPECT_NEAR(amp, std::abs(ac.transfer(f)), 2e-3);
}

TEST(EdgeCases, TransimPwlRampIntoRc) {
  // PWL ramp then hold: final value equals the hold level.
  Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add_voltage_source("vin", in, kGround, 0.0);
  nl.add_resistor("r1", in, out, 100.0);
  nl.add_capacitor("c1", out, kGround, 1e-9);
  transim::TransientSimulator sim(nl);
  sim.set_waveform("vin", transim::pwl({{0.0, 0.0}, {1e-7, 2.5}, {1e-6, 2.5}}));
  transim::TransientOptions opts;
  opts.t_stop = 2e-6;
  opts.dt = 1e-9;
  const auto res = sim.run(opts);
  EXPECT_NEAR(res.node_voltage(sim.layout(), out).back(), 2.5, 1e-6);
}

TEST(EdgeCases, CompiledProgramSingleConstantRoot) {
  symbolic::ExprGraph g;
  const auto root = g.constant(42.0);
  symbolic::CompiledProgram prog(g, std::vector<symbolic::NodeId>{root});
  std::vector<double> out(1), scratch(prog.register_count());
  prog.run_batch(std::vector<double>{}, out, scratch, 1);
  EXPECT_DOUBLE_EQ(out[0], 42.0);
}

TEST(EdgeCases, CompiledProgramDuplicateRoots) {
  symbolic::ExprGraph g;
  const auto x = g.input(0);
  const auto r = g.mul(x, x);
  symbolic::CompiledProgram prog(g, std::vector<symbolic::NodeId>{r, r, x});
  std::vector<double> out(3), scratch(prog.register_count());
  prog.run_batch(std::vector<double>{3.0}, out, scratch, 1);
  EXPECT_DOUBLE_EQ(out[0], 9.0);
  EXPECT_DOUBLE_EQ(out[1], 9.0);
  EXPECT_DOUBLE_EQ(out[2], 3.0);
}

TEST(EdgeCases, ScratchTooSmallRejected) {
  symbolic::ExprGraph g;
  const auto r = g.add(g.input(0), g.constant(1.0));
  symbolic::CompiledProgram prog(g, std::vector<symbolic::NodeId>{r});
  std::vector<double> out(1), scratch;
  EXPECT_THROW(prog.run_batch(std::vector<double>{1.0}, out, scratch, 1),
               std::invalid_argument);
  std::vector<double> in;
  std::vector<double> scratch2(prog.register_count());
  EXPECT_THROW(prog.run_batch(in, out, scratch2, 1), std::invalid_argument);
}

TEST(EdgeCases, VcvsLoopHasUniqueSolution) {
  // Two VCVS in a ring with attenuation < 1 is solvable; gain 1 ring with
  // a forcing conflict would be singular — check both behaviors.
  Netlist nl;
  const auto a = nl.node("a");
  const auto b = nl.node("b");
  nl.add_voltage_source("vin", nl.node("in"), kGround, 1.0);
  nl.add_resistor("rin", nl.node("in"), a, 1e3);
  nl.add_vcvs("e1", b, kGround, a, kGround, 0.5);
  nl.add_resistor("rfb", b, a, 1e3);
  circuit::MnaAssembler asem(nl);
  auto lu = linalg::SparseLu::factor(asem.build_g());
  ASSERT_TRUE(lu.has_value());
  const auto x = lu->solve(asem.rhs("vin", 1.0));
  // KVL: v_a = (v_in + v_b)/2 with v_b = v_a/2 -> v_a = 2/3, v_b = 1/3.
  EXPECT_NEAR(x[asem.layout().node_unknown(a)], 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(x[asem.layout().node_unknown(b)], 1.0 / 3.0, 1e-9);
}

TEST(EdgeCases, CompiledModelOrderHigherThanCircuit) {
  // Requesting order 4 of a 2-pole circuit: symbolic moments exist, Padé
  // falls back to the feasible order at evaluation.
  auto fig = circuits::make_fig1();
  const auto model = core::CompiledModel::build(fig.netlist, {"g2"},
                                                circuits::Fig1Circuit::kInput, fig.v2,
                                                {.order = 4});
  const auto rom = model.evaluate(std::vector<double>{1.0});
  EXPECT_LE(rom.order(), 2u);
  EXPECT_NEAR(rom.dc_gain(), 1.0, 1e-9);
}

TEST(EdgeCases, AcAtZeroFrequencyEqualsDcSolve) {
  auto fig = circuits::make_fig1();
  engine::AcAnalysis ac(fig.netlist, "vin", fig.v2);
  const auto h0 = ac.transfer(0.0);
  EXPECT_NEAR(h0.real(), 1.0, 1e-12);
  EXPECT_NEAR(h0.imag(), 0.0, 1e-12);
}

TEST(EdgeCases, SelfLoopResistorHasNoEffect) {
  Netlist nl;
  const auto a = nl.node("a");
  nl.add_voltage_source("vin", nl.node("in"), kGround, 1.0);
  nl.add_resistor("r1", nl.node("in"), a, 1e3);
  nl.add_resistor("rload", a, kGround, 1e3);
  nl.add_resistor("rself", a, a, 50.0);  // self loop: stamps cancel
  circuit::MnaAssembler asem(nl);
  auto lu = linalg::SparseLu::factor(asem.build_g());
  ASSERT_TRUE(lu.has_value());
  const auto x = lu->solve(asem.rhs("vin", 1.0));
  EXPECT_NEAR(x[asem.layout().node_unknown(a)], 0.5, 1e-12);
}

}  // namespace
}  // namespace awe
