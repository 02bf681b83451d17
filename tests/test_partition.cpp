#include <gtest/gtest.h>

#include <cmath>

#include "awe/moments.hpp"
#include "circuits/fig1_rc.hpp"
#include "partition/partitioner.hpp"
#include "partition/port_moments.hpp"

namespace awe::part {
namespace {

using circuit::kGround;
using circuit::Netlist;

TEST(Partitioner, ValidatesInputs) {
  auto fig = circuits::make_fig1();
  EXPECT_THROW(MomentPartitioner(fig.netlist, {"g1"}, "vin", kGround),
               std::invalid_argument);
  EXPECT_THROW(MomentPartitioner(fig.netlist, {}, "vin", fig.v2), std::invalid_argument);
  EXPECT_THROW(MomentPartitioner(fig.netlist, {"ghost"}, "vin", fig.v2),
               std::invalid_argument);
  EXPECT_THROW(MomentPartitioner(fig.netlist, {"g1"}, "ghost", fig.v2),
               std::invalid_argument);
  EXPECT_THROW(MomentPartitioner(fig.netlist, {"g1"}, "g2", fig.v2),
               std::invalid_argument);
  EXPECT_THROW(MomentPartitioner(fig.netlist, {"vin"}, "vin", fig.v2),
               std::invalid_argument);
}

TEST(Partitioner, PortsCoverSymbolsAndIo) {
  auto fig = circuits::make_fig1();
  MomentPartitioner p(fig.netlist, {"g2"}, "vin", fig.v2);
  // g2 spans v1-v2; input node in; output v2 -> ports {in, v1, v2}.
  EXPECT_EQ(p.ports().size(), 3u);
}

TEST(Partitioner, NumericPortMomentsMatchSingleResistor) {
  // Numeric partition reduced to a single resistor R between two ports:
  // Y0 = (1/R) [[1,-1],[-1,1]], Y1 = 0.
  Netlist nl;
  const auto a = nl.node("a");
  const auto b = nl.node("b");
  nl.add_voltage_source("vin", a, kGround, 1.0);
  nl.add_resistor("rnum", a, b, 2000.0);
  nl.add_capacitor("csym", b, kGround, 1e-12);  // symbolic -> not in partition
  MomentPartitioner p(nl, {"csym"}, "vin", b);
  const auto yk = p.numeric_port_moments(2);
  ASSERT_EQ(p.ports().size(), 2u);
  const double g = 1.0 / 2000.0;
  EXPECT_NEAR(yk[0][0 * 2 + 0], g, 1e-12);
  EXPECT_NEAR(yk[0][0 * 2 + 1], -g, 1e-12);
  EXPECT_NEAR(yk[0][1 * 2 + 0], -g, 1e-12);
  EXPECT_NEAR(yk[0][1 * 2 + 1], g, 1e-12);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(yk[1][i], 0.0, 1e-18);
}

TEST(Partitioner, NumericPortMomentsOfInternalRc) {
  // Partition: port -- R -- internal node with C to ground.
  // Y(s) = (1/R) * sRC/(1+sRC) = sC - s^2 R C^2 + ...
  Netlist nl;
  const auto a = nl.node("a");
  const auto m = nl.node("m");
  nl.add_voltage_source("vin", a, kGround, 1.0);
  nl.add_resistor("r1", a, m, 1e3);
  nl.add_capacitor("c1", m, kGround, 1e-9);
  nl.add_conductance("gsym", a, kGround, 1e-4);  // symbolic
  MomentPartitioner p(nl, {"gsym"}, "vin", a);
  ASSERT_EQ(p.ports().size(), 1u);
  const auto yk = p.numeric_port_moments(3);
  EXPECT_NEAR(yk[0][0], 0.0, 1e-15);
  EXPECT_NEAR(yk[1][0], 1e-9, 1e-18);          // sC
  EXPECT_NEAR(yk[2][0], -1e3 * 1e-18, 1e-24);  // -R C^2
}

TEST(Partitioner, Fig1FullSymbolicMatchesEquation5) {
  // All four elements symbolic: the composite moments must reproduce the
  // Maclaurin series of eqn (5) symbolically.
  auto fig = circuits::make_fig1();
  MomentPartitioner p(fig.netlist, {"g1", "g2", "c1", "c2"},
                      circuits::Fig1Circuit::kInput, fig.v2);
  const auto sym = p.compute(4);
  ASSERT_EQ(sym.symbols.size(), 4u);

  // Check against the closed form at random-ish points.
  for (const auto& vals : std::vector<std::vector<double>>{
           {1e-3, 2e-3, 1e-12, 3e-12},
           {5e-3, 5e-4, 7e-12, 2e-12},
           {1.0, 2.0, 3.0, 4.0}}) {
    const double g1 = vals[0], g2 = vals[1], c1 = vals[2], c2 = vals[3];
    const double d0 = g1 * g2;
    const double d1 = g2 * c1 + g2 * c2 + g1 * c2;
    const double d2 = c1 * c2;
    std::vector<double> expected(4);
    expected[0] = 1.0;
    expected[1] = -d1 / d0;
    expected[2] = (-d1 * expected[1] - d2 * expected[0]) / d0;
    expected[3] = (-d1 * expected[2] - d2 * expected[1]) / d0;
    const auto got = sym.evaluate(vals);
    for (std::size_t k = 0; k < 4; ++k)
      EXPECT_NEAR(got[k], expected[k], 1e-9 * (std::abs(expected[k]) + 1e-12))
          << "k=" << k;
  }
}

TEST(Partitioner, MomentsMatchFullAweAcrossSymbolValues) {
  // The central claim: symbolic moments evaluated at any symbol values are
  // identical to a full numeric AWE moment computation at those values.
  circuits::Fig1Values base;
  auto fig = circuits::make_fig1(base);
  MomentPartitioner p(fig.netlist, {"g2", "c2"}, circuits::Fig1Circuit::kInput, fig.v2);
  const auto sym = p.compute(6);

  for (const double g2 : {0.5, 1.0, 4.0}) {
    for (const double c2 : {0.25, 1.0, 8.0}) {
      const auto m_sym = sym.evaluate(std::vector<double>{g2, c2});
      circuits::Fig1Values vals = base;
      vals.g2 = g2;
      vals.c2 = c2;
      auto ref = circuits::make_fig1(vals);
      const auto m_ref = engine::MomentGenerator(ref.netlist)
                             .transfer_moments(circuits::Fig1Circuit::kInput, ref.v2, 6);
      for (std::size_t k = 0; k < 6; ++k)
        EXPECT_NEAR(m_sym[k], m_ref[k], 1e-8 * (std::abs(m_ref[k]) + 1e-15))
            << "g2=" << g2 << " c2=" << c2 << " k=" << k;
    }
  }
}

TEST(Partitioner, ResistorSymbolUsesReciprocal) {
  Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add_voltage_source("vin", in, kGround, 1.0);
  nl.add_resistor("rsym", in, out, 1e3);
  nl.add_capacitor("cl", out, kGround, 1e-9);
  MomentPartitioner p(nl, {"rsym"}, "vin", out);
  const auto sym = p.compute(4);
  ASSERT_TRUE(sym.symbols[0].reciprocal);
  // m_k = (-RC)^k; evaluate at R = 2k.
  const auto m = sym.evaluate(std::vector<double>{2e3});
  const double rc = 2e3 * 1e-9;
  for (std::size_t k = 0; k < 4; ++k)
    EXPECT_NEAR(m[k], std::pow(-rc, static_cast<double>(k)), 1e-10 * std::pow(rc, k));
}

TEST(Partitioner, InductorSymbol) {
  // R in numeric partition, L symbolic: H = R/(R + sL) across the R?
  // Output across L: H = sL/(R+sL): m1 = L/R, m2 = -(L/R)^2 L... use AWE ref.
  Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add_voltage_source("vin", in, kGround, 1.0);
  nl.add_resistor("r1", in, out, 50.0);
  nl.add_inductor("lsym", out, kGround, 1e-6);
  MomentPartitioner p(nl, {"lsym"}, "vin", out);
  const auto sym = p.compute(4);
  for (const double lval : {1e-7, 1e-6, 5e-6}) {
    nl.set_value("lsym", lval);
    const auto m_ref = engine::MomentGenerator(nl).transfer_moments("vin", out, 4);
    const auto m_sym = sym.evaluate(std::vector<double>{lval});
    for (std::size_t k = 0; k < 4; ++k)
      EXPECT_NEAR(m_sym[k], m_ref[k], 1e-9 * (std::abs(m_ref[k]) + 1e-18)) << "k=" << k;
  }
}

TEST(Partitioner, VccsSymbol) {
  Netlist nl;
  const auto in = nl.node("in");
  const auto a = nl.node("a");
  const auto out = nl.node("out");
  nl.add_voltage_source("vin", in, kGround, 1.0);
  nl.add_resistor("r1", in, a, 1e3);
  nl.add_capacitor("c1", a, kGround, 1e-12);
  nl.add_vccs("gmsym", out, kGround, a, kGround, 1e-3);
  nl.add_resistor("r2", out, kGround, 5e3);
  nl.add_capacitor("c2", out, kGround, 2e-12);
  MomentPartitioner p(nl, {"gmsym"}, "vin", out);
  const auto sym = p.compute(4);
  for (const double gm : {1e-4, 1e-3, 5e-3}) {
    nl.set_value("gmsym", gm);
    const auto m_ref = engine::MomentGenerator(nl).transfer_moments("vin", out, 4);
    const auto m_sym = sym.evaluate(std::vector<double>{gm});
    for (std::size_t k = 0; k < 4; ++k)
      EXPECT_NEAR(m_sym[k], m_ref[k], 1e-9 * (std::abs(m_ref[k]) + 1e-18)) << "k=" << k;
  }
}

TEST(Partitioner, CurrentSourceInput) {
  // Input as a current source into an RC with symbolic C.
  Netlist nl;
  const auto a = nl.node("a");
  nl.add_current_source("iin", kGround, a, 1.0);
  nl.add_resistor("r1", a, kGround, 1e3);
  nl.add_capacitor("csym", a, kGround, 1e-9);
  MomentPartitioner p(nl, {"csym"}, "iin", a);
  const auto sym = p.compute(3);
  // H(s) = R/(1+sRC): m0 = R, m1 = -R^2 C, m2 = R^3 C^2.
  const auto m = sym.evaluate(std::vector<double>{1e-9});
  EXPECT_NEAR(m[0], 1e3, 1e-9);
  EXPECT_NEAR(m[1], -1e6 * 1e-9, 1e-9);
  EXPECT_NEAR(m[2], 1e9 * 1e-18, 1e-12);
}

TEST(Partitioner, MultilinearFirstTwoMoments) {
  // With MNA stamps linear per symbol, det(Y0) and N_0 are multilinear —
  // the property the paper notes for first-order forms.
  auto fig = circuits::make_fig1();
  MomentPartitioner p(fig.netlist, {"g1", "g2"}, circuits::Fig1Circuit::kInput, fig.v2);
  const auto sym = p.compute(2);
  for (const auto& t : sym.det_y0.terms())
    for (const auto e : t.exponents) EXPECT_LE(e, 1);
  for (const auto& t : sym.numerators[0].terms())
    for (const auto e : t.exponents) EXPECT_LE(e, 1);
}

TEST(PortMoments, SingleResistorBetweenPorts) {
  Netlist nl;
  const auto a = nl.node("a");
  const auto b = nl.node("b");
  nl.add_resistor("r1", a, b, 500.0);
  const auto yk = port_admittance_moments_inplace(nl, {a, b}, 3);
  const double g = 1.0 / 500.0;
  EXPECT_NEAR(yk[0][0], g, 1e-12);
  EXPECT_NEAR(yk[0][1], -g, 1e-12);
  EXPECT_NEAR(yk[0][2], -g, 1e-12);
  EXPECT_NEAR(yk[0][3], g, 1e-12);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(yk[1][i], 0.0, 1e-18);
  EXPECT_THROW(port_admittance_moments_inplace(nl, {}, 2), std::invalid_argument);
  EXPECT_THROW(port_admittance_moments_inplace(nl, {kGround}, 2), std::invalid_argument);
}

TEST(PortMoments, ReciprocityOfRcNetworks) {
  // Passive reciprocal network -> every Y_k block is symmetric.
  Netlist nl;
  const auto a = nl.node("a");
  const auto b = nl.node("b");
  const auto m = nl.node("m");
  nl.add_resistor("r1", a, m, 100.0);
  nl.add_resistor("r2", m, b, 300.0);
  nl.add_capacitor("c1", m, kGround, 2e-12);
  nl.add_capacitor("c2", a, b, 1e-12);
  const auto yk = port_admittance_moments_inplace(nl, {a, b}, 5);
  for (std::size_t k = 0; k < 5; ++k)
    EXPECT_NEAR(yk[k][0 * 2 + 1], yk[k][1 * 2 + 0],
                1e-12 * (std::abs(yk[k][1]) + 1e-20))
        << "k=" << k;
}

TEST(PortMoments, InternalSourcesAreZeroed) {
  Netlist nl;
  const auto a = nl.node("a");
  nl.add_resistor("r1", a, kGround, 1e3);
  nl.add_voltage_source("vbias", nl.node("x"), kGround, 5.0);
  nl.add_resistor("rx", nl.node("x"), a, 1e3);
  const auto yk = port_admittance_moments_inplace(nl, {a}, 2);
  // With vbias zeroed (short), looking into a: 1k || 1k = 500 ohm.
  EXPECT_NEAR(yk[0][0], 1.0 / 500.0, 1e-12);
}

TEST(SymbolicMoments, MomentAccessorAndNames) {
  auto fig = circuits::make_fig1();
  MomentPartitioner p(fig.netlist, {"g2", "c2"}, circuits::Fig1Circuit::kInput, fig.v2);
  const auto sym = p.compute(2);
  const auto names = sym.symbol_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "g2");
  EXPECT_EQ(names[1], "c2");
  const auto m0 = sym.moment(0);
  const std::vector<double> pt{1.0, 1.0};
  EXPECT_NEAR(m0.evaluate(pt), 1.0, 1e-9);
  EXPECT_THROW(sym.evaluate(std::vector<double>{1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace awe::part
