#include <gtest/gtest.h>

#include "circuit/parser.hpp"

namespace awe::circuit {
namespace {

TEST(SpiceValue, PlainAndScientific) {
  EXPECT_DOUBLE_EQ(parse_spice_value("42"), 42.0);
  EXPECT_DOUBLE_EQ(parse_spice_value("1e-12"), 1e-12);
  EXPECT_DOUBLE_EQ(parse_spice_value("-3.5"), -3.5);
}

TEST(SpiceValue, MagnitudeSuffixes) {
  EXPECT_DOUBLE_EQ(parse_spice_value("4.7k"), 4700.0);
  EXPECT_DOUBLE_EQ(parse_spice_value("3meg"), 3e6);
  EXPECT_DOUBLE_EQ(parse_spice_value("2M"), 2e-3);  // SPICE: m = milli
  EXPECT_DOUBLE_EQ(parse_spice_value("10u"), 10e-6);
  EXPECT_DOUBLE_EQ(parse_spice_value("5n"), 5e-9);
  EXPECT_DOUBLE_EQ(parse_spice_value("30p"), 30e-12);
  EXPECT_DOUBLE_EQ(parse_spice_value("1f"), 1e-15);
  EXPECT_DOUBLE_EQ(parse_spice_value("2g"), 2e9);
  EXPECT_DOUBLE_EQ(parse_spice_value("1t"), 1e12);
}

TEST(SpiceValue, UnitTextIgnored) {
  EXPECT_DOUBLE_EQ(parse_spice_value("1kohm"), 1000.0);
  EXPECT_DOUBLE_EQ(parse_spice_value("10pF"), 10e-12);
  EXPECT_DOUBLE_EQ(parse_spice_value("5v"), 5.0);
}

TEST(SpiceValue, GarbageThrows) {
  EXPECT_THROW(parse_spice_value("abc"), std::runtime_error);
  EXPECT_THROW(parse_spice_value(""), std::runtime_error);
  EXPECT_THROW(parse_spice_value("1.2.3k!"), std::runtime_error);
}

TEST(ParseDeck, BasicRcCircuit) {
  const auto deck = parse_deck_string(R"(* test rc circuit
Vin in 0 1.0
R1 in mid 1k
C1 mid 0 10p
.input vin
.output mid
.end
)");
  EXPECT_EQ(deck.title, " test rc circuit");
  EXPECT_EQ(deck.netlist.elements().size(), 3u);
  EXPECT_EQ(deck.input_source, "vin");
  EXPECT_EQ(deck.output_node, "mid");
  const auto& r = deck.netlist.elements()[1];
  EXPECT_EQ(r.kind, ElementKind::kResistor);
  EXPECT_DOUBLE_EQ(r.value, 1000.0);
}

TEST(ParseDeck, SymbolDirectiveAccumulates) {
  const auto deck = parse_deck_string(R"(
R1 a 0 1k
C1 a 0 1p
.symbol R1
.symbol C1
)");
  ASSERT_EQ(deck.symbol_elements.size(), 2u);
  EXPECT_EQ(deck.symbol_elements[0], "r1");
  EXPECT_EQ(deck.symbol_elements[1], "c1");
}

TEST(ParseDeck, ControlledSources) {
  const auto deck = parse_deck_string(R"(
V1 in 0 1
G1 out 0 in 0 1m
E1 e1 0 in 0 10
F1 f1 0 V1 2
H1 h1 0 V1 50
R1 out 0 1k
R2 e1 0 1k
R3 f1 0 1k
R4 h1 0 1k
)");
  const auto& els = deck.netlist.elements();
  EXPECT_EQ(els[1].kind, ElementKind::kVccs);
  EXPECT_DOUBLE_EQ(els[1].value, 1e-3);
  EXPECT_EQ(els[2].kind, ElementKind::kVcvs);
  EXPECT_EQ(els[3].kind, ElementKind::kCccs);
  EXPECT_EQ(els[3].ctrl_source, "v1");
  EXPECT_EQ(els[4].kind, ElementKind::kCcvs);
  EXPECT_TRUE(deck.netlist.validate().empty());
}

TEST(ParseDeck, CommentsAndBlankLines) {
  const auto deck = parse_deck_string(R"(* title
* full comment line

R1 a 0 1k ; trailing comment
)");
  EXPECT_EQ(deck.netlist.elements().size(), 1u);
}

TEST(ParseDeck, ErrorsCarryLineNumbers) {
  try {
    parse_deck_string("R1 a 0 1k\nZ9 bogus card\n");
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(ParseDeck, MissingFieldsRejected) {
  EXPECT_THROW(parse_deck_string("R1 a 0\n"), std::runtime_error);
  EXPECT_THROW(parse_deck_string("G1 a 0 b 1m\n"), std::runtime_error);
  EXPECT_THROW(parse_deck_string(".symbol\n"), std::runtime_error);
}

// A deck names one input and one output; a repeat fails at its own line.
TEST(ParseDeck, RepeatedInputRejected) {
  try {
    parse_deck_string("V1 a 0 1\nV2 b 0 1\nR1 a b 1k\n.input v1\n.input v2\n.output b\n");
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "netlist line 5: repeated '.input'");
  }
}

TEST(ParseDeck, RepeatedOutputRejected) {
  try {
    parse_deck_string("V1 a 0 1\nR1 a b 1k\nR2 b 0 1k\n.output a\n.input v1\n.OUTPUT b\n");
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "netlist line 6: repeated '.OUTPUT'");
  }
}

TEST(ParseDeck, ContentAfterEndRejected) {
  EXPECT_THROW(parse_deck_string(".end\nR1 a 0 1k\n"), std::runtime_error);
}

TEST(ParseDeck, UnknownDirectiveRejected) {
  EXPECT_THROW(parse_deck_string(".bogus x\n"), std::runtime_error);
}

TEST(ParseDeck, InductorCard) {
  const auto deck = parse_deck_string("L1 a b 10n\nR1 a 0 1\nR2 b 0 1\n");
  EXPECT_EQ(deck.netlist.elements()[0].kind, ElementKind::kInductor);
  EXPECT_DOUBLE_EQ(deck.netlist.elements()[0].value, 1e-8);
}

}  // namespace
}  // namespace awe::circuit
