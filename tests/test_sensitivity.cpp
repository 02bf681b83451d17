#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "awe/pade.hpp"
#include "awe/sensitivity.hpp"
#include "circuits/fig1_rc.hpp"
#include "circuits/opamp741.hpp"

namespace awe::engine {
namespace {

using circuit::kGround;
using circuit::Netlist;

// Finite-difference reference for d m_k / d(value of element `name`).
std::vector<double> fd_moment_sensitivity(const Netlist& nl, const std::string& input,
                                          circuit::NodeId output, std::size_t count,
                                          const std::string& name, double rel = 1e-6) {
  const auto idx = *nl.find_element(name);
  const double v0 = nl.elements()[idx].value;
  Netlist hi = nl;
  hi.set_value(idx, v0 * (1 + rel));
  Netlist lo = nl;
  lo.set_value(idx, v0 * (1 - rel));
  const auto mh = MomentGenerator(hi).transfer_moments(input, output, count);
  const auto ml = MomentGenerator(lo).transfer_moments(input, output, count);
  std::vector<double> d(count);
  for (std::size_t k = 0; k < count; ++k) d[k] = (mh[k] - ml[k]) / (2 * rel * v0);
  return d;
}

TEST(MomentSensitivity, MatchesFiniteDifferencesOnFig1) {
  auto fig = circuits::make_fig1({.g1 = 1e-3, .g2 = 2e-3, .c1 = 2e-12, .c2 = 5e-12});
  const auto& nl = fig.netlist;
  MomentGenerator gen(nl);
  const std::size_t count = 5;
  const auto ms =
      moment_sensitivities(gen, circuits::Fig1Circuit::kInput, fig.v2, count);

  const auto m0 = gen.transfer_moments(circuits::Fig1Circuit::kInput, fig.v2, count);
  const double rel = 1e-6;
  for (const char* name : {"g1", "g2", "c1", "c2"}) {
    const auto idx = *nl.find_element(name);
    ASSERT_TRUE(ms.differentiable[idx]);
    const auto fd = fd_moment_sensitivity(nl, circuits::Fig1Circuit::kInput, fig.v2,
                                          count, name, rel);
    const double v0 = nl.elements()[idx].value;
    for (std::size_t k = 0; k < count; ++k) {
      // The central difference carries cancellation noise of order
      // eps * |m_k| / (2 * rel * v0); the comparison must allow for it.
      const double fd_noise = 1e-14 * std::abs(m0[k]) / (2.0 * rel * v0);
      EXPECT_NEAR(ms.dm[k][idx], fd[k], 1e-4 * std::abs(fd[k]) + fd_noise)
          << name << " k=" << k;
    }
  }
}

TEST(MomentSensitivity, ResistorAndInductorAndVccs) {
  Netlist nl;
  const auto in = nl.node("in");
  const auto a = nl.node("a");
  const auto out = nl.node("out");
  nl.add_voltage_source("vin", in, kGround, 1.0);
  nl.add_resistor("r1", in, a, 1e3);
  nl.add_capacitor("c1", a, kGround, 1e-12);
  nl.add_vccs("gm1", out, kGround, a, kGround, 1e-3);
  nl.add_resistor("r2", out, kGround, 5e3);
  nl.add_inductor("l1", out, kGround, 1e-5);
  nl.add_capacitor("c2", out, kGround, 2e-12);

  MomentGenerator gen(nl);
  const std::size_t count = 4;
  const auto ms = moment_sensitivities(gen, "vin", out, count);
  for (const char* name : {"r1", "r2", "gm1", "l1", "c1", "c2"}) {
    const auto idx = *nl.find_element(name);
    const auto fd = fd_moment_sensitivity(nl, "vin", out, count, name);
    for (std::size_t k = 0; k < count; ++k)
      EXPECT_NEAR(ms.dm[k][idx], fd[k], 2e-4 * (std::abs(fd[k]) + 1e-30))
          << name << " k=" << k;
  }
}

TEST(PoleSensitivity, MatchesFiniteDifferencesOnFig1) {
  circuits::Fig1Values vals{.g1 = 1e-3, .g2 = 2e-3, .c1 = 2e-12, .c2 = 5e-12};
  auto fig = circuits::make_fig1(vals);
  const auto& nl = fig.netlist;
  const std::size_t order = 2;
  MomentGenerator gen(nl);
  const auto m = gen.transfer_moments(circuits::Fig1Circuit::kInput, fig.v2, 2 * order);
  const auto ms =
      moment_sensitivities(gen, circuits::Fig1Circuit::kInput, fig.v2, 2 * order);
  const auto pz = pole_zero_sensitivities(m, ms, order);
  ASSERT_EQ(pz.poles.size(), 2u);

  const double rel = 1e-5;
  for (const char* name : {"g1", "c1"}) {
    const auto idx = *nl.find_element(name);
    const double v0 = nl.elements()[idx].value;
    Netlist hi = nl;
    hi.set_value(idx, v0 * (1 + rel));
    Netlist lo = nl;
    lo.set_value(idx, v0 * (1 - rel));
    PadeScratch ph(2), pl(2);
    ASSERT_EQ(pade_lane(MomentGenerator(hi).transfer_moments(circuits::Fig1Circuit::kInput,
                                                             fig.v2, 4),
                        2, /*allow_fallback=*/false, ph),
              health::FailClass::kNone);
    ASSERT_EQ(pade_lane(MomentGenerator(lo).transfer_moments(circuits::Fig1Circuit::kInput,
                                                             fig.v2, 4),
                        2, /*allow_fallback=*/false, pl),
              health::FailClass::kNone);
    for (std::size_t i = 0; i < 2; ++i) {
      // Match poles across perturbed runs by proximity.
      const auto p = pz.poles[i];
      auto nearest = [&](const linalg::CVector& set) {
        return *std::min_element(set.begin(), set.end(), [&](auto x, auto y) {
          return std::abs(x - p) < std::abs(y - p);
        });
      };
      const auto fd = (nearest(ph.poles) - nearest(pl.poles)) / (2.0 * rel * v0);
      EXPECT_NEAR(pz.dpole[i][idx].real(), fd.real(),
                  1e-3 * (std::abs(fd) + 1.0))
          << name << " pole " << i;
    }
  }
}

TEST(SymbolRanking, OpampPicksThePaperSymbols) {
  // On the 741, gout_q14 and c_comp must rank at the very top — this is
  // exactly the paper's automatic symbol identification.
  auto amp = circuits::make_opamp741();
  const auto ranked = rank_symbol_candidates(
      amp.netlist, circuits::Opamp741Circuit::kInput, amp.out, 2);
  ASSERT_GE(ranked.size(), 2u);
  std::vector<std::string> top;
  for (std::size_t i = 0; i < 6 && i < ranked.size(); ++i) top.push_back(ranked[i].name);
  EXPECT_NE(std::find(top.begin(), top.end(), circuits::Opamp741Circuit::kSymbolGout),
            top.end())
      << "gout_q14 not in top candidates";
  EXPECT_NE(std::find(top.begin(), top.end(), circuits::Opamp741Circuit::kSymbolCcomp),
            top.end())
      << "c_comp not in top candidates";
  // Scores sorted descending.
  for (std::size_t i = 1; i < ranked.size(); ++i)
    EXPECT_GE(ranked[i - 1].normalized_sensitivity, ranked[i].normalized_sensitivity);
}

TEST(SymbolRanking, NeverRanksNonDifferentiableElements) {
  // Regression pin: the candidate list must contain ONLY elements whose
  // value the sensitivity machinery can actually differentiate — an
  // independent source or a VCVS gain must never appear, however sensitive
  // the transfer function is to it.  (The compiled gradient subsystem
  // relies on this filter: every ranked candidate is a legal .symbol for a
  // with_gradients build.)
  circuit::Netlist nl;
  const auto in = nl.node("in");
  const auto mid = nl.node("mid");
  const auto amp_out = nl.node("ampout");
  const auto out = nl.node("out");
  nl.add_voltage_source("vin", in, circuit::kGround, 1.0);
  nl.add_resistor("r1", in, mid, 1e3);
  nl.add_capacitor("c1", mid, circuit::kGround, 1e-9);
  nl.add_vcvs("e1", amp_out, circuit::kGround, mid, circuit::kGround, 10.0);
  nl.add_resistor("r2", amp_out, out, 2e3);
  nl.add_capacitor("c2", out, circuit::kGround, 0.5e-9);

  MomentGenerator gen(nl);
  const auto ms = moment_sensitivities(gen, "vin", out, 4);
  const auto ranked = rank_symbol_candidates(nl, "vin", out, 2);
  ASSERT_FALSE(ranked.empty());
  for (const auto& cand : ranked) {
    EXPECT_TRUE(ms.differentiable[cand.element_index])
        << cand.name << " ranked despite being non-differentiable";
    EXPECT_NE(cand.name, "e1");
    EXPECT_NE(cand.name, "vin");
  }
  // The differentiable R/C population is all present and accounted for.
  EXPECT_EQ(ranked.size(), 4u);
}

}  // namespace
}  // namespace awe::engine
