// Netlist serialization round trips and multi-output compiled models.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "awe/moments.hpp"
#include "circuit/parser.hpp"
#include "circuit/writer.hpp"
#include "circuits/coupled_lines.hpp"
#include "circuits/fig1_rc.hpp"
#include "core/awesymbolic.hpp"
#include "partition/partitioner.hpp"
#include "symbolic/compile.hpp"
#include "testing/netlist_gen.hpp"

namespace awe {
namespace {

using circuit::deck_to_string;
using circuit::parse_deck_string;

TEST(Writer, RoundTripPreservesEverything) {
  const std::string original = R"(* round trip deck
Vin in 0 1
R1 in a 1000
C1 a 0 1.0000000000000001e-11
L1 a b 9.9999999999999998e-09
R2 b out 2000
C2 out 0 5.0000000000000001e-12
G1 out 0 a 0 0.001
E1 e 0 a 0 2
R3 e 0 1000
F1 0 out Vin 0.5
H1 h 0 Vin 100
R4 h 0 1000
.symbol R2
.symbol C2
.input vin
.output out
.end
)";
  const auto deck1 = parse_deck_string(original);
  const auto text = deck_to_string(deck1);
  const auto deck2 = parse_deck_string(text);

  ASSERT_EQ(deck1.netlist.elements().size(), deck2.netlist.elements().size());
  for (std::size_t i = 0; i < deck1.netlist.elements().size(); ++i) {
    const auto& a = deck1.netlist.elements()[i];
    const auto& b = deck2.netlist.elements()[i];
    EXPECT_EQ(a.kind, b.kind) << a.name;
    EXPECT_EQ(a.name, b.name);
    EXPECT_DOUBLE_EQ(a.value, b.value) << a.name;
    EXPECT_EQ(deck1.netlist.node_name(a.pos), deck2.netlist.node_name(b.pos));
    EXPECT_EQ(deck1.netlist.node_name(a.neg), deck2.netlist.node_name(b.neg));
  }
  EXPECT_EQ(deck1.symbol_elements, deck2.symbol_elements);
  EXPECT_EQ(deck1.input_source, deck2.input_source);
  EXPECT_EQ(deck1.output_node, deck2.output_node);
}

TEST(Writer, MutualRoundTrip) {
  const auto deck1 = parse_deck_string(R"(
L1 a 0 0.001
L2 b 0 0.002
K1 L1 L2 0.75
R1 a 0 10
R2 b 0 10
)");
  const auto deck2 = parse_deck_string(deck_to_string(deck1));
  const auto idx = *deck2.netlist.find_element("k1");
  EXPECT_EQ(deck2.netlist.elements()[idx].ctrl_source, "l1");
  EXPECT_EQ(deck2.netlist.elements()[idx].ctrl_source2, "l2");
  EXPECT_DOUBLE_EQ(deck2.netlist.elements()[idx].value, 0.75);
}

TEST(Writer, ConductanceSubstitution) {
  circuit::Netlist nl;
  nl.add_conductance("g1", nl.node("a"), circuit::kGround, 2e-3);
  nl.add_voltage_source("v1", nl.node("a"), circuit::kGround, 1.0);
  std::ostringstream os;
  circuit::write_netlist(os, nl);
  // Parses back as a 500-ohm resistor named rg1.
  const auto deck = parse_deck_string(os.str());
  const auto idx = deck.netlist.find_element("rg1");
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(deck.netlist.elements()[*idx].kind, circuit::ElementKind::kResistor);
  EXPECT_DOUBLE_EQ(deck.netlist.elements()[*idx].value, 500.0);

  circuit::WriteOptions strict;
  strict.strict = true;
  std::ostringstream os2;
  EXPECT_THROW(circuit::write_netlist(os2, nl, strict), std::invalid_argument);
}

// Written and generated decks are compared byte for byte (fuzz reports,
// the determinism matrix), so every value keeps all 17 significant digits.
TEST(Writer, ExactValueGolden) {
  circuit::ParsedDeck d;
  d.title = "exact values";
  auto& nl = d.netlist;
  nl.add_voltage_source("vin", nl.node("in"), circuit::kGround, 1.0);
  nl.add_resistor("r1", nl.node("in"), nl.node("out"), 1.0 / 3.0);
  nl.add_capacitor("c1", nl.node("out"), circuit::kGround, 1e-15);
  nl.add_inductor("l1", nl.node("out"), nl.node("x"), 47455.116774790571);
  nl.add_conductance("g1", nl.node("x"), circuit::kGround, 3.0);
  d.symbol_elements = {"r1", "c1"};
  d.input_source = "vin";
  d.output_node = "out";
  EXPECT_EQ(deck_to_string(d), R"(*exact values
vin in 0 1
r1 in out 0.33333333333333331
c1 out 0 1.0000000000000001e-15
l1 out x 47455.116774790571
rg1 x 0 0.33333333333333331 ; conductance 3 S written as resistance
.symbol r1
.symbol c1
.input vin
.output out
.end
)");
}

TEST(Writer, GeneratedDeckGolden) {
  testing::GenOptions opts;
  opts.seed = 7;
  EXPECT_EQ(testing::generate_deck(opts).text, R"(* awe_fuzz generated deck seed=7
.subckt rcpi a b
rs1 a m 123.29599990187589
rs2 m b 439.46185356452099
cs1 m 0 3.4640007575590663e-11
.ends
rsp1 n1 0 7166.7446359478936
rsp2 n2 n1 20.935199604115692
rb5 n1 nb3 998.51185667129914
rb4 nb3 0 1907.702023420037
vin n1 0 1
rsn7 nb3 ms6 2865.6916659078506
vsn8 ms6 n2 0
hd10 nh9 n1 vsn8 200.0818902691006
rl12 n1 m11 12.232409189515375
ll13 m11 nh9 1.3284970787244047e-07
cd14 nb3 m11 2.36794934776828e-11
gd15 nb3 n2 nh9 0 0.0012851789806602549
rl17 nh9 m16 1218.2385219510231
ll18 m16 n2 5.9815694471260769e-07
gd19 nh9 nb3 n2 0 0.004875545831930333
.symbol rsp1 rsn7
.input vin
.output ms6
.end
)");
  opts.seed = 42;
  EXPECT_EQ(testing::generate_deck(opts).text, R"(* awe_fuzz generated deck seed=42
.subckt rcpi a b
rs1 a m 51.020294497820835
rs2 m b 1019.3071615469368
cs1 m 0 9.2398850944732805e-13
.ends
rsp1 n1 0 152.91635843481151
rsp2 n2 0 4168.995908010017
rsp3 n3 n2 77800.578735878124
rsp4 n4 n3 995.99781069603591
rb7 n1 nb5 230.70616605168169
rb6 nb5 0 3086.998652622804
iin n1 0 1
ed9 ne8 n2 n1 0 0.11712104844318173
rl11 n1 m10 15.395979710156597
ll12 m10 nb5 1.0867839327031239e-07
x13 m10 nb5 rcpi
.symbol ll12 rsp1
.input iin
.output n1
.end
)");
}

TEST(Writer, RoundTripElectricallyIdentical) {
  // Moments of the reparsed circuit equal moments of the original.
  auto fig = circuits::make_fig1({.g1 = 1e-3, .g2 = 2e-3, .c1 = 2e-12, .c2 = 5e-12});
  std::ostringstream os;
  circuit::write_netlist(os, fig.netlist);
  const auto deck = parse_deck_string(os.str());
  const auto m1 = engine::MomentGenerator(fig.netlist)
                      .transfer_moments("vin", fig.v2, 4);
  const auto m2 = engine::MomentGenerator(deck.netlist)
                      .transfer_moments("vin", *deck.netlist.find_node("v2"), 4);
  for (std::size_t k = 0; k < 4; ++k)
    EXPECT_NEAR(m1[k], m2[k], 1e-12 * (std::abs(m1[k]) + 1e-20));
}

// ---------------------------------------------------------------------------

TEST(MultiOutput, MatchesSingleOutputModels) {
  circuits::CoupledLineValues v;
  v.segments = 40;
  auto c = circuits::make_coupled_lines(v);
  const std::vector<std::string> symbols{
      circuits::CoupledLinesCircuit::kSymbolRdriver,
      circuits::CoupledLinesCircuit::kSymbolCload};

  const auto multi = core::MultiOutputModel::build(
      c.netlist, symbols, circuits::CoupledLinesCircuit::kInput,
      {c.line1_out, c.line2_out}, {.order = 2});
  ASSERT_EQ(multi.output_count(), 2u);
  EXPECT_EQ(multi.output_node(0), c.line1_out);

  const auto single1 = core::CompiledModel::build(
      c.netlist, symbols, circuits::CoupledLinesCircuit::kInput, c.line1_out,
      {.order = 2});
  const auto single2 = core::CompiledModel::build(
      c.netlist, symbols, circuits::CoupledLinesCircuit::kInput, c.line2_out,
      {.order = 2});

  for (const double r : {50.0, 200.0}) {
    const std::vector<double> vals{r, v.c_load};
    const auto m1m = multi.moments_at(0, vals);
    const auto m1s = single1.moments_at(vals);
    const auto m2m = multi.moments_at(1, vals);
    const auto m2s = single2.moments_at(vals);
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_NEAR(m1m[k], m1s[k], 1e-9 * (std::abs(m1s[k]) + 1e-20));
      EXPECT_NEAR(m2m[k], m2s[k], 1e-9 * (std::abs(m2s[k]) + 1e-20));
    }
  }
}

TEST(MultiOutput, CrossOutputCseSharesWork) {
  // Compile the same multi-output symbolic moments (a) as one shared
  // program and (b) as two independent per-output programs, and verify the
  // shared program is strictly smaller — det(Y0) and the common moment
  // subexpressions are emitted once.
  circuits::CoupledLineValues v;
  v.segments = 40;
  auto c = circuits::make_coupled_lines(v);
  const std::vector<std::string> symbols{
      circuits::CoupledLinesCircuit::kSymbolRdriver,
      circuits::CoupledLinesCircuit::kSymbolCload};
  part::MomentPartitioner partitioner(c.netlist, symbols,
                                      circuits::CoupledLinesCircuit::kInput,
                                      std::vector<circuit::NodeId>{c.line1_out,
                                                                   c.line2_out});
  const auto sym = partitioner.compute_all(4);

  auto compile_outputs = [&](std::span<const std::size_t> outs) {
    symbolic::ExprGraph g;
    std::vector<symbolic::NodeId> vars{g.input(0), g.input(1)};
    std::vector<symbolic::NodeId> roots;
    for (const std::size_t o : outs)
      for (const auto& numerator : sym.numerators[o])
        roots.push_back(lower_polynomial(g, numerator, vars));
    roots.push_back(lower_polynomial(g, sym.det_y0, vars));
    return symbolic::CompiledProgram(g, roots).instruction_count();
  };
  const std::size_t shared = compile_outputs(std::vector<std::size_t>{0, 1});
  const std::size_t separate = compile_outputs(std::vector<std::size_t>{0}) +
                               compile_outputs(std::vector<std::size_t>{1});
  EXPECT_LT(shared, separate);
}

TEST(MultiOutput, BusVictimAttenuationDecaysWithDistance) {
  circuits::CoupledBusValues v;
  v.lines = 4;
  v.segments = 30;
  auto bus = circuits::make_coupled_bus(v);
  // Victims at distance d couple through d capacitive stages, so their
  // leading moments vanish up to m_{d}; order 3 keeps every output feasible.
  const auto multi = core::MultiOutputModel::build(
      bus.netlist, {"rdrv1", "cload2"}, circuits::CoupledBusCircuit::kInput,
      bus.line_outs, {.order = 3});
  ASSERT_EQ(multi.output_count(), 4u);

  const std::vector<double> vals{v.r_driver, v.c_load};
  auto peak = [&](std::size_t o) {
    const auto rom = multi.evaluate(o, vals);
    double p = 0.0;
    for (double t = 0; t <= 300e-9; t += 1e-9)
      p = std::max(p, std::abs(rom.step_response(t)));
    return p;
  };
  const double direct = peak(0);
  const double v1 = peak(1);
  const double v2 = peak(2);
  EXPECT_NEAR(direct, 1.0, 0.05);  // aggressor settles to 1
  EXPECT_GT(v1, v2);               // coupling decays with distance
  EXPECT_GT(v1, 1e-3);
  EXPECT_LT(v2, v1);
}

TEST(MultiOutput, Validation) {
  auto fig = circuits::make_fig1();
  EXPECT_THROW(core::MultiOutputModel::build(fig.netlist, {"g2"}, "vin", {},
                                             {.order = 2}),
               std::invalid_argument);
  const auto multi = core::MultiOutputModel::build(fig.netlist, {"g2"}, "vin",
                                                   {fig.v1, fig.v2}, {.order = 2});
  EXPECT_THROW(multi.moments_at(5, std::vector<double>{1.0}), std::out_of_range);
  EXPECT_THROW(multi.moments_at(0, std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
  EXPECT_EQ(multi.symbol_names().size(), 1u);
}

TEST(CoupledBus, GeneratorValidation) {
  EXPECT_THROW(circuits::make_coupled_bus({.lines = 1}), std::invalid_argument);
  EXPECT_THROW(circuits::make_coupled_bus({.lines = 3, .segments = 0}),
               std::invalid_argument);
  auto bus = circuits::make_coupled_bus({.lines = 3, .segments = 5});
  EXPECT_TRUE(bus.netlist.validate().empty());
  // 3 lines x (V + Rdrv + 5R + 5C + load) + 2 x 5 coupling caps.
  EXPECT_EQ(bus.netlist.elements().size(), 3u * 13u + 10u);
}

}  // namespace
}  // namespace awe
