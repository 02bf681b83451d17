// Deeper coverage: cross-module combinations.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "awe/ac.hpp"
#include "awe/awe.hpp"
#include "awe/sensitivity.hpp"
#include "circuit/parser.hpp"
#include "circuits/mesh.hpp"
#include "core/awesymbolic.hpp"
#include "transim/transim.hpp"

namespace awe {
namespace {

using circuit::kGround;
using circuit::Netlist;

TEST(DeepCoverage, GradientsOnMeshSymbolicModel) {
  circuits::MeshValues v;
  v.width = 6;
  v.height = 6;
  auto mesh = circuits::make_rc_mesh(v);
  const auto model = core::CompiledModel::build(
      mesh.netlist, {"rdrv", "cload"}, circuits::MeshCircuit::kInput, mesh.far_corner,
      {.order = 2, .with_gradients = true});
  const std::vector<double> vals{30.0, 3e-12};
  const auto mg = model.moments_and_gradients(vals);
  const double rel = 1e-6;
  for (std::size_t i = 0; i < 2; ++i) {
    auto hi = vals, lo = vals;
    hi[i] *= 1 + rel;
    lo[i] *= 1 - rel;
    const auto mh = model.moments_at(hi);
    const auto ml = model.moments_at(lo);
    for (std::size_t k = 0; k < 4; ++k) {
      const double fd = (mh[k] - ml[k]) / (2 * rel * vals[i]);
      EXPECT_NEAR(mg.dm[k][i], fd,
                  1e-4 * std::abs(fd) + 1e-8 * std::abs(mg.moments[k] / vals[i]));
    }
  }
}

TEST(DeepCoverage, TransimMatchesAcOnTransformer) {
  // Mutual inductance through the transient path: steady-state sine
  // amplitude equals |H| from the exact AC solve.
  Netlist nl;
  const auto in = nl.node("in");
  const auto p = nl.node("p");
  const auto s = nl.node("s");
  nl.add_voltage_source("vin", in, kGround, 0.0);
  nl.add_resistor("rs", in, p, 50.0);
  nl.add_inductor("lp", p, kGround, 1e-3);
  nl.add_inductor("ls", s, kGround, 1e-3);
  nl.add_resistor("rl", s, kGround, 500.0);
  nl.add_mutual("k1", "lp", "ls", 0.8);

  const double f = 50e3;
  engine::AcAnalysis ac(nl, "vin", s);
  const double expected = std::abs(ac.transfer(f));

  transim::TransientSimulator sim(nl);
  sim.set_waveform("vin", transim::sine(1.0, f));
  transim::TransientOptions opts;
  opts.t_stop = 200e-6;
  opts.dt = 20e-9;
  const auto res = sim.run(opts);
  const auto vs = res.node_voltage(sim.layout(), s);
  double amp = 0.0;
  for (std::size_t k = vs.size() * 3 / 4; k < vs.size(); ++k)
    amp = std::max(amp, std::abs(vs[k]));
  EXPECT_NEAR(amp, expected, 0.01 * expected + 1e-4);
}

TEST(DeepCoverage, ZeroSensitivityFiniteDifference) {
  // Circuit with a genuine finite zero: shunt R with series RC bypass.
  Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  const auto mid = nl.node("mid");
  nl.add_voltage_source("vin", in, kGround, 1.0);
  nl.add_resistor("r1", in, out, 1e3);
  nl.add_resistor("r2", out, mid, 2e3);
  nl.add_capacitor("c1", mid, kGround, 1e-9);
  nl.add_capacitor("c2", out, kGround, 0.2e-9);
  const std::size_t order = 2;
  engine::MomentGenerator gen(nl);
  const auto m = gen.transfer_moments("vin", out, 2 * order);
  const auto ms = engine::moment_sensitivities(gen, "vin", out, 2 * order);
  const auto pz = engine::pole_zero_sensitivities(m, ms, order);
  ASSERT_FALSE(pz.zeros.empty());

  const double rel = 1e-5;
  const auto idx = *nl.find_element("c1");
  const double v0 = nl.elements()[idx].value;
  auto zeros_at = [&](double value) {
    Netlist mutated = nl;
    mutated.set_value(idx, value);
    const auto mm = engine::MomentGenerator(mutated).transfer_moments("vin", out, 4);
    const auto mms = engine::moment_sensitivities(engine::MomentGenerator(mutated),
                                                  "vin", out, 4);
    return engine::pole_zero_sensitivities(mm, mms, order).zeros;
  };
  const auto zh = zeros_at(v0 * (1 + rel));
  const auto zl = zeros_at(v0 * (1 - rel));
  for (std::size_t i = 0; i < pz.zeros.size(); ++i) {
    auto nearest = [&](const linalg::CVector& set) {
      return *std::min_element(set.begin(), set.end(), [&](auto x, auto y) {
        return std::abs(x - pz.zeros[i]) < std::abs(y - pz.zeros[i]);
      });
    };
    const auto fd = (nearest(zh) - nearest(zl)) / (2.0 * rel * v0);
    EXPECT_NEAR(pz.dzero[i][idx].real(), fd.real(), 1e-3 * (std::abs(fd) + 1.0));
  }
}

TEST(DeepCoverage, SubcktPlusSymbolicEndToEnd) {
  // Hierarchical deck -> symbolic model on an element inside an instance.
  const auto deck = circuit::parse_deck_string(R"(
.subckt seg a b
R1 a b 200
C1 b 0 2p
.ends
Vin in 0 1
X1 in n1 seg
X2 n1 n2 seg
X3 n2 out seg
.symbol x2.c1
.input vin
.output out
)");
  const auto out = *deck.netlist.find_node("out");
  const auto model = core::CompiledModel::build(deck.netlist, deck.symbol_elements,
                                                deck.input_source, out, {.order = 2});
  for (const double c : {1e-12, 4e-12}) {
    const auto m_sym = model.moments_at(std::vector<double>{c});
    Netlist mutated = deck.netlist;
    mutated.set_value("x2.c1", c);
    const auto m_ref = engine::MomentGenerator(mutated).transfer_moments("vin", out, 4);
    for (std::size_t k = 0; k < 4; ++k)
      EXPECT_NEAR(m_sym[k], m_ref[k], 1e-9 * (std::abs(m_ref[k]) + 1e-20));
  }
}

}  // namespace
}  // namespace awe
