#include <gtest/gtest.h>

#include <cmath>

#include "awe/moments.hpp"
#include "circuits/fig1_rc.hpp"
#include "circuits/ladders.hpp"

namespace awe::engine {
namespace {

using circuit::kGround;
using circuit::Netlist;

TEST(Moments, SingleRcPole) {
  // H(s) = 1/(1 + sRC): m_k = (-RC)^k.
  Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add_voltage_source("vin", in, kGround, 1.0);
  nl.add_resistor("r1", in, out, 1e3);
  nl.add_capacitor("c1", out, kGround, 1e-9);
  MomentGenerator gen(nl);
  const auto m = gen.transfer_moments("vin", out, 5);
  const double rc = 1e-6;
  for (std::size_t k = 0; k < m.size(); ++k)
    EXPECT_NEAR(m[k], std::pow(-rc, static_cast<double>(k)),
                1e-12 * std::pow(rc, static_cast<double>(k)));
}

TEST(Moments, Fig1MatchesClosedForm) {
  // H = n / (d0 + d1 s + d2 s^2); Maclaurin by long division.
  circuits::Fig1Values vals;
  vals.g1 = 2e-3;
  vals.g2 = 0.5e-3;
  vals.c1 = 3e-12;
  vals.c2 = 7e-12;
  auto fig = circuits::make_fig1(vals);
  const auto ex = circuits::fig1_exact(vals);

  MomentGenerator gen(fig.netlist);
  const auto m = gen.transfer_moments(circuits::Fig1Circuit::kInput, fig.v2, 6);

  // Recurrence: m_0 = n/d0; d0 m_k = -d1 m_{k-1} - d2 m_{k-2}.
  std::vector<double> expected(6);
  expected[0] = ex.num / ex.den_s0;
  expected[1] = -ex.den_s1 * expected[0] / ex.den_s0;
  for (std::size_t k = 2; k < 6; ++k)
    expected[k] = (-ex.den_s1 * expected[k - 1] - ex.den_s2 * expected[k - 2]) / ex.den_s0;
  for (std::size_t k = 0; k < 6; ++k)
    EXPECT_NEAR(m[k], expected[k], 1e-9 * std::abs(expected[k]) + 1e-30) << "k=" << k;
}

TEST(Moments, FirstMomentIsMinusElmore) {
  // For an RC ladder, -m1 at the far end is the Elmore sum over nodes of
  // R_path * C_node.
  circuits::LadderValues v;
  v.segments = 5;
  auto lad = circuits::make_rc_ladder(v);
  const auto m = MomentGenerator(lad.netlist)
                     .transfer_moments(circuits::LadderCircuit::kInput, lad.out, 2);
  // Hand computation: node j (0..5) has path resistance Rdrv + j*Rseg.
  double elmore = 0.0;
  for (int j = 0; j <= 5; ++j) elmore += (v.r_driver + j * v.r_seg) * v.c_seg;
  EXPECT_NEAR(m[1], -elmore, 1e-15);
  EXPECT_DOUBLE_EQ(m[0], 1.0);
}

TEST(Moments, InductorMomentsMatchAnalytic) {
  // Series R-L driven by V source, output across L:
  // H(s) = sL/(R + sL) = s(L/R) - s^2 (L/R)^2 + ...
  Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add_voltage_source("vin", in, kGround, 1.0);
  nl.add_resistor("r1", in, out, 50.0);
  nl.add_inductor("l1", out, kGround, 1e-6);
  MomentGenerator gen(nl);
  const auto m = gen.transfer_moments("vin", out, 4);
  const double tau = 1e-6 / 50.0;
  EXPECT_NEAR(m[0], 0.0, 1e-15);
  EXPECT_NEAR(m[1], tau, 1e-12 * tau);
  EXPECT_NEAR(m[2], -tau * tau, 1e-12 * tau * tau);
}

TEST(Moments, StateMomentsDriveTransferMoments) {
  auto fig = circuits::make_fig1();
  MomentGenerator gen(fig.netlist);
  const auto xs = gen.state_moments(circuits::Fig1Circuit::kInput, 4);
  const auto m = gen.transfer_moments(circuits::Fig1Circuit::kInput, fig.v2, 4);
  const auto out = gen.assembler().layout().node_unknown(fig.v2);
  for (std::size_t k = 0; k < 4; ++k) EXPECT_DOUBLE_EQ(xs[k][out], m[k]);
}

TEST(Moments, AdjointIdentity) {
  // z_i^T b must equal m_i = c^T x_i (adjoint/direct duality):
  // z_i^T b = c^T (G^{-1} (-C G^{-1})^i) b = m_i.
  auto fig = circuits::make_fig1();
  MomentGenerator gen(fig.netlist);
  const auto zs = gen.adjoint_moments(fig.v2, 4);
  const auto m = gen.transfer_moments(circuits::Fig1Circuit::kInput, fig.v2, 4);
  const auto b = gen.assembler().rhs(circuits::Fig1Circuit::kInput, 1.0);
  for (std::size_t i = 0; i < 4; ++i) {
    double dot = 0.0;
    for (std::size_t k = 0; k < b.size(); ++k) dot += zs[i][k] * b[k];
    EXPECT_NEAR(dot, m[i], 1e-12 * (1.0 + std::abs(m[i]))) << "i=" << i;
  }
}

TEST(Moments, SingularDcMatrixRejected) {
  // A node with no DC path (series capacitor island) has singular G.
  Netlist nl;
  const auto in = nl.node("in");
  const auto mid = nl.node("mid");
  nl.add_voltage_source("vin", in, kGround, 1.0);
  nl.add_capacitor("c1", in, mid, 1e-12);
  nl.add_capacitor("c2", mid, kGround, 1e-12);
  EXPECT_THROW(MomentGenerator gen(nl), std::runtime_error);
}

}  // namespace
}  // namespace awe::engine
