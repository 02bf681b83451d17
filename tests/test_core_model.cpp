#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "awe/awe.hpp"
#include "circuits/fig1_rc.hpp"
#include "circuits/opamp741.hpp"
#include "core/awesymbolic.hpp"

namespace awe::core {
namespace {

TEST(CompiledModel, MomentsIdenticalToFullAwe) {
  // Paper: "the results are identical to those obtained by a numeric AWE
  // analysis."  Compiled path vs full re-analysis across a value grid.
  circuits::Fig1Values base;
  auto fig = circuits::make_fig1(base);
  const auto model = CompiledModel::build(fig.netlist, {"g2", "c2"},
                                          circuits::Fig1Circuit::kInput, fig.v2,
                                          {.order = 2});
  for (const double g2 : {0.3, 1.0, 3.0}) {
    for (const double c2 : {0.5, 1.0, 2.0}) {
      const auto m = model.moments_at(std::vector<double>{g2, c2});
      circuits::Fig1Values vals = base;
      vals.g2 = g2;
      vals.c2 = c2;
      auto ref = circuits::make_fig1(vals);
      const auto m_ref =
          engine::MomentGenerator(ref.netlist)
              .transfer_moments(circuits::Fig1Circuit::kInput, ref.v2, 4);
      for (std::size_t k = 0; k < 4; ++k)
        EXPECT_NEAR(m[k], m_ref[k], 1e-9 * (std::abs(m_ref[k]) + 1e-15));
    }
  }
}

TEST(CompiledModel, CompiledEqualsUncompiled) {
  auto fig = circuits::make_fig1();
  const auto model = CompiledModel::build(fig.netlist, {"g1", "c1"},
                                          circuits::Fig1Circuit::kInput, fig.v2,
                                          {.order = 2});
  for (const double g1 : {0.1, 1.0, 10.0}) {
    const std::vector<double> vals{g1, 2.0};
    const auto fast = model.moments_at(vals);
    const auto slow = model.moments_uncompiled(vals);
    ASSERT_EQ(fast.size(), slow.size());
    for (std::size_t k = 0; k < fast.size(); ++k)
      EXPECT_NEAR(fast[k], slow[k], 1e-10 * (std::abs(slow[k]) + 1e-15));
  }
}

TEST(CompiledModel, EvaluateProducesSameRomAsFullAwe) {
  circuits::Fig1Values base;
  auto fig = circuits::make_fig1(base);
  const auto model = CompiledModel::build(fig.netlist, {"g2", "c2"},
                                          circuits::Fig1Circuit::kInput, fig.v2,
                                          {.order = 2});
  const std::vector<double> vals{2.0, 0.7};
  const auto rom = model.evaluate(vals);

  circuits::Fig1Values v2 = base;
  v2.g2 = vals[0];
  v2.c2 = vals[1];
  auto ref = circuits::make_fig1(v2);
  const auto rom_ref =
      engine::run_awe(ref.netlist, circuits::Fig1Circuit::kInput, ref.v2, {.order = 2});

  ASSERT_EQ(rom.order(), rom_ref.order());
  for (std::size_t i = 0; i < rom.order(); ++i) {
    double best = 1e300;
    for (std::size_t j = 0; j < rom_ref.order(); ++j)
      best = std::min(best, std::abs(rom.poles()[i] - rom_ref.poles()[j]));
    EXPECT_LT(best, 1e-6 * std::abs(rom.poles()[i]));
  }
  EXPECT_NEAR(rom.dc_gain(), rom_ref.dc_gain(), 1e-9 * std::abs(rom_ref.dc_gain()));
}

TEST(CompiledModel, WorkspaceFromDifferentModelRejected) {
  // Regression: a workspace built for another model used to drive
  // out-of-bounds writes; the documented precondition is enforced with an
  // explicit size check.
  auto fig = circuits::make_fig1();
  const auto two_sym = CompiledModel::build(fig.netlist, {"g2", "c2"},
                                            circuits::Fig1Circuit::kInput, fig.v2,
                                            {.order = 2});
  const auto one_sym = CompiledModel::build(fig.netlist, {"c1"},
                                            circuits::Fig1Circuit::kInput, fig.v2,
                                            {.order = 1});
  auto foreign_batch = one_sym.make_batch_workspace(8);
  std::vector<double> pts(2 * 8, 1.0), out(two_sym.moment_count() * 8);
  std::vector<unsigned char> ok(8);
  EXPECT_THROW(two_sym.moments_batch(pts, 8, 8, foreign_batch, out, 8, ok),
               std::invalid_argument);
  auto own_batch = two_sym.make_batch_workspace(8);
  EXPECT_NO_THROW(two_sym.moments_batch(pts, 8, 8, own_batch, out, 8, ok));
}

TEST(CompiledModel, ClosedFormsFirstOrder) {
  // Single-pole RC with symbolic C: p1 = m0/m1 = -1/(RC), A0 = 1.
  circuit::Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add_voltage_source("vin", in, circuit::kGround, 1.0);
  nl.add_resistor("r1", in, out, 1e3);
  nl.add_capacitor("csym", out, circuit::kGround, 1e-9);
  const auto model = CompiledModel::build(nl, {"csym"}, "vin", out, {.order = 1});

  const auto gain = model.dc_gain_expression();
  const auto pole = model.first_order_pole_expression();
  for (const double c : {1e-10, 1e-9, 3e-9}) {
    const std::vector<double> pt{c};
    EXPECT_NEAR(gain.evaluate(pt), 1.0, 1e-9);
    EXPECT_NEAR(pole.evaluate(pt), -1.0 / (1e3 * c), 1e-6 / (1e3 * c));
  }
}

TEST(CompiledModel, InputValidation) {
  auto fig = circuits::make_fig1();
  EXPECT_THROW(CompiledModel::build(fig.netlist, {"g1"}, "vin", fig.v2, {.order = 0}),
               std::invalid_argument);
  EXPECT_THROW(CompiledModel::build(fig.netlist, {"g1"}, "vin", std::string("ghost"),
                                    ModelOptions{}),
               std::invalid_argument);
  const auto model = CompiledModel::build(fig.netlist, {"g1"},
                                          circuits::Fig1Circuit::kInput, fig.v2, {});
  EXPECT_THROW(model.moments_at(std::vector<double>{1.0, 2.0}), std::invalid_argument);
}

TEST(CompiledModel, ReciprocalSymbolGuards) {
  circuit::Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add_voltage_source("vin", in, circuit::kGround, 1.0);
  nl.add_resistor("rsym", in, out, 1e3);
  nl.add_capacitor("c1", out, circuit::kGround, 1e-9);
  const auto model = CompiledModel::build(nl, {"rsym"}, "vin", out, {.order = 1});
  EXPECT_THROW(model.moments_at(std::vector<double>{0.0}), std::domain_error);
  const auto m = model.moments_at(std::vector<double>{2e3});
  EXPECT_NEAR(m[0], 1.0, 1e-12);
  EXPECT_NEAR(m[1], -2e-6, 1e-15);
}

/// what() of the E that f throws; a marker when it throws nothing or
/// another type.
template <class E, class F>
std::string what_of(F&& f) {
  try {
    f();
  } catch (const E& e) {
    return e.what();
  } catch (...) {
    return "<other exception>";
  }
  return "<no exception>";
}

TEST(CompiledModel, ScalarEntryPointsKeepTheirErrorContract) {
  // The fuzz oracle records these texts as compiled_error, so its JSON
  // bytes depend on them: each scalar entry point must raise the same
  // type with the same text.
  circuit::Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add_voltage_source("vin", in, circuit::kGround, 1.0);
  nl.add_resistor("rsym", in, out, 1e3);
  nl.add_capacitor("c1", out, circuit::kGround, 1e-9);
  const auto rc =
      CompiledModel::build(nl, {"rsym"}, "vin", out, {.order = 1, .with_gradients = true});
  // g2 = 0 leaves v2 with no DC path: det(Y0) vanishes.
  auto fig = circuits::make_fig1();
  const auto floating = CompiledModel::build(fig.netlist, {"g2", "c2"},
                                             circuits::Fig1Circuit::kInput, fig.v2,
                                             {.order = 2, .with_gradients = true});

  using Call = std::function<void(const CompiledModel&, std::span<const double>)>;
  const std::pair<const char*, Call> entries[] = {
      {"moments_at", [](const CompiledModel& m, std::span<const double> v) { m.moments_at(v); }},
      {"evaluate", [](const CompiledModel& m, std::span<const double> v) { m.evaluate(v); }},
      {"moments_and_gradients",
       [](const CompiledModel& m, std::span<const double> v) { m.moments_and_gradients(v); }}};
  const std::string arity = "CompiledModel: wrong number of element values";
  for (const auto& [name, call] : entries) {
    EXPECT_EQ(what_of<std::domain_error>([&] { call(rc, std::vector<double>{0.0}); }),
              "CompiledModel: zero resistance symbol value")
        << name;
    EXPECT_EQ(what_of<std::domain_error>([&] { call(floating, std::vector<double>{0.0, 1.0}); }),
              "CompiledModel: det(Y0) vanishes at this point")
        << name;
    EXPECT_EQ(what_of<std::invalid_argument>([&] { call(floating, std::vector<double>{1.0}); }),
              arity)
        << name;
    EXPECT_EQ(what_of<std::invalid_argument>(
                  [&] { call(floating, std::vector<double>{1.0, 1.0, 1.0}); }),
              arity)
        << name;
    EXPECT_EQ(what_of<std::domain_error>([&] { call(floating, std::vector<double>{1.0, 1.0}); }),
              "<no exception>")
        << name;
  }
}

TEST(SelectSymbols, ReturnsRequestedCount) {
  auto amp = circuits::make_opamp741();
  const auto names =
      select_symbols(amp.netlist, circuits::Opamp741Circuit::kInput, amp.out, 2, 2);
  ASSERT_EQ(names.size(), 2u);
}

TEST(CompiledModel, ProgramStatsPopulated) {
  auto fig = circuits::make_fig1();
  const auto model = CompiledModel::build(fig.netlist, {"g2", "c2"},
                                          circuits::Fig1Circuit::kInput, fig.v2,
                                          {.order = 2});
  EXPECT_GT(model.instruction_count(), 0u);
  EXPECT_GT(model.register_count(), 0u);
  EXPECT_EQ(model.moment_count(), 4u);
  EXPECT_GE(model.port_count(), 2u);
  const auto names = model.symbol_names();
  ASSERT_EQ(names.size(), 2u);
}

}  // namespace
}  // namespace awe::core
