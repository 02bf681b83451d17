// Symbolic Padé closed forms, the Taylor ablation model, and C export.
#include <gtest/gtest.h>

#include <dlfcn.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <fstream>

#include "awe/moments.hpp"
#include "awe/pade.hpp"
#include "circuits/fig1_rc.hpp"
#include "core/awesymbolic.hpp"
#include "core/taylor_model.hpp"

namespace awe::core {
namespace {

TEST(SymbolicPade, Order2CoefficientsMatchNumericPade) {
  circuits::Fig1Values base;
  auto fig = circuits::make_fig1(base);
  const auto model = CompiledModel::build(fig.netlist, {"g2", "c2"},
                                          circuits::Fig1Circuit::kInput, fig.v2,
                                          {.order = 2});
  const auto den = model.symbolic_denominator();
  const auto num = model.symbolic_numerator();
  ASSERT_EQ(den.size(), 3u);
  ASSERT_EQ(num.size(), 2u);

  for (const double g2 : {0.5, 1.0, 2.0}) {
    for (const double c2 : {0.5, 1.0, 3.0}) {
      const std::vector<double> vals{g2, c2};
      // Numeric Padé at the same point.
      circuits::Fig1Values v = base;
      v.g2 = g2;
      v.c2 = c2;
      auto ref = circuits::make_fig1(v);
      const auto m = engine::MomentGenerator(ref.netlist)
                         .transfer_moments(circuits::Fig1Circuit::kInput, ref.v2, 4);
      engine::PadeScratch pade(2);
      ASSERT_EQ(engine::pade_lane(m, 2, /*allow_fallback=*/false, pade),
                health::FailClass::kNone);
      EXPECT_NEAR(den[1].evaluate(vals), pade.denominator[1],
                  1e-6 * std::abs(pade.denominator[1]));
      EXPECT_NEAR(den[2].evaluate(vals), pade.denominator[2],
                  1e-6 * std::abs(pade.denominator[2]));
      // a1 is exactly zero symbolically (constant numerator) while the
      // numeric path carries round-off of order eps * |a0|.
      EXPECT_NEAR(num[0].evaluate(vals), pade.numerator[0],
                  1e-6 * std::abs(pade.numerator[0]) + 1e-15);
      EXPECT_NEAR(num[1].evaluate(vals), pade.numerator[1],
                  1e-6 * std::abs(pade.numerator[1]) +
                      1e-9 * std::abs(pade.numerator[0]));
    }
  }
}

TEST(SymbolicPade, Order2DenominatorIsExactForTwoPoleCircuit) {
  // For the 2-pole Fig.1 circuit, the order-2 Padé denominator equals the
  // true characteristic polynomial (normalized to D(0)=1): eqn (5).
  circuits::Fig1Values v{.g1 = 2.0, .g2 = 3.0, .c1 = 0.5, .c2 = 0.25};
  auto fig = circuits::make_fig1(v);
  const auto ex = circuits::fig1_exact(v);
  const auto model = CompiledModel::build(fig.netlist, {"c1"},
                                          circuits::Fig1Circuit::kInput, fig.v2,
                                          {.order = 2});
  const auto den = model.symbolic_denominator();
  const std::vector<double> pt{v.c1};
  EXPECT_NEAR(den[1].evaluate(pt), ex.den_s1 / ex.den_s0, 1e-9);
  EXPECT_NEAR(den[2].evaluate(pt), ex.den_s2 / ex.den_s0, 1e-9);
}

TEST(SymbolicPade, HigherOrdersThrow) {
  auto fig = circuits::make_fig1();
  const auto model = CompiledModel::build(fig.netlist, {"g2"},
                                          circuits::Fig1Circuit::kInput, fig.v2,
                                          {.order = 3});
  EXPECT_THROW(model.symbolic_denominator(), std::invalid_argument);
  EXPECT_THROW(model.symbolic_numerator(), std::invalid_argument);
}

TEST(TaylorModel, ExactAtExpansionPointAndFirstOrderAway) {
  circuits::Fig1Values base;
  auto fig = circuits::make_fig1(base);
  const auto taylor = TaylorMomentModel::build(fig.netlist, {"g2", "c2"},
                                               circuits::Fig1Circuit::kInput, fig.v2,
                                               {.order = 2});
  const auto exact_model = CompiledModel::build(fig.netlist, {"g2", "c2"},
                                                circuits::Fig1Circuit::kInput, fig.v2,
                                                {.order = 2});
  // At the expansion point the moments agree to round-off.
  const std::vector<double> nominal{base.g2, base.c2};
  const auto mt = taylor.moments_at(nominal);
  const auto me = exact_model.moments_at(nominal);
  for (std::size_t k = 0; k < 4; ++k)
    EXPECT_NEAR(mt[k], me[k], 1e-9 * (std::abs(me[k]) + 1e-15));

  // Error grows quadratically with the perturbation (first-order model).
  auto err = [&](double rel) {
    const std::vector<double> v{base.g2 * (1 + rel), base.c2 * (1 + rel)};
    const auto a = taylor.moments_at(v);
    const auto b = exact_model.moments_at(v);
    double e = 0.0;
    for (std::size_t k = 0; k < 4; ++k)
      e = std::max(e, std::abs(a[k] - b[k]) / (std::abs(b[k]) + 1e-15));
    return e;
  };
  const double e1 = err(0.01), e2 = err(0.1);
  EXPECT_LT(e1, 1e-3);
  EXPECT_GT(e2 / e1, 20.0);  // ~quadratic growth (100x ideal)
}

TEST(TaylorModel, Validation) {
  auto fig = circuits::make_fig1();
  EXPECT_THROW(TaylorMomentModel::build(fig.netlist, {}, "vin", fig.v2, {.order = 2}),
               std::invalid_argument);
  EXPECT_THROW(TaylorMomentModel::build(fig.netlist, {"ghost"}, "vin", fig.v2,
                                        {.order = 2}),
               std::invalid_argument);
  EXPECT_THROW(TaylorMomentModel::build(fig.netlist, {"vin"}, "vin", fig.v2,
                                        {.order = 2}),
               std::invalid_argument);
  const auto t = TaylorMomentModel::build(fig.netlist, {"g2"}, "vin", fig.v2,
                                          {.order = 1});
  EXPECT_THROW(t.moments_at(std::vector<double>{1.0, 2.0}), std::invalid_argument);
  EXPECT_EQ(t.symbol_names().size(), 1u);
  EXPECT_EQ(t.expansion_point().size(), 1u);
}

TEST(ExportC, EmitsCompilableLookingSource) {
  auto fig = circuits::make_fig1();
  const auto model = CompiledModel::build(fig.netlist, {"g2", "c2"},
                                          circuits::Fig1Circuit::kInput, fig.v2,
                                          {.order = 2});
  const auto src = model.export_c_source("eval_moments");
  EXPECT_NE(src.find("void eval_moments(const double* in, double* out)"),
            std::string::npos);
  EXPECT_NE(src.find("out[4]"), std::string::npos);  // det(Y0) output
  EXPECT_NE(src.find("in[0]"), std::string::npos);
  EXPECT_NE(src.find("in[1]"), std::string::npos);
  // Every output of the program is assigned.
  for (std::size_t k = 0; k <= 4; ++k)
    EXPECT_NE(src.find("out[" + std::to_string(k) + "] = "), std::string::npos) << k;
}

TEST(ExportC, CompiledSharedObjectMatchesInterpreter) {
  // Full round trip: emit C, compile it with the system compiler, load it
  // and check it computes the same moments as the interpreter.
  auto fig = circuits::make_fig1();
  const auto model = CompiledModel::build(fig.netlist, {"g2", "c2"},
                                          circuits::Fig1Circuit::kInput, fig.v2,
                                          {.order = 2});
  const auto src = model.export_c_source("eval_moments");

  char dir_template[] = "/tmp/awe_export_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;
  {
    std::ofstream out(dir + "/model.c");
    out << src;
  }
  const std::string cmd =
      "cc -O2 -shared -fPIC -o " + dir + "/model.so " + dir + "/model.c 2>/dev/null";
  if (std::system(cmd.c_str()) != 0) GTEST_SKIP() << "no working C compiler";

  void* handle = dlopen((dir + "/model.so").c_str(), RTLD_NOW);
  ASSERT_NE(handle, nullptr) << dlerror();
  using Fn = void (*)(const double*, double*);
  auto fn = reinterpret_cast<Fn>(dlsym(handle, "eval_moments"));
  ASSERT_NE(fn, nullptr);

  for (const double g2 : {0.5, 1.0, 2.0}) {
    const double in[2] = {g2, 1.5};  // internal symbols: conductance, capacitance
    double out[5];
    fn(in, out);
    // moment k = out[k] / out[4]^{k+1}; g2 is a conductance element, so the
    // internal symbol equals the element value (no reciprocal transform).
    const auto ref = model.moments_at(std::vector<double>{g2, 1.5});
    double dp = out[4];
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_NEAR(out[k] / dp, ref[k], 1e-12 * (std::abs(ref[k]) + 1e-15)) << "k=" << k;
      dp *= out[4];
    }
  }
  dlclose(handle);
}

TEST(ExportC, InterpreterAndSourceSemanticsAgree) {
  // Emit C, then mimic its semantics by re-running the interpreter —
  // and spot-check a constant embedded in the source.
  auto fig = circuits::make_fig1();
  const auto model = CompiledModel::build(fig.netlist, {"g2"},
                                          circuits::Fig1Circuit::kInput, fig.v2,
                                          {.order = 1});
  const auto src = model.export_c_source("f");
  EXPECT_GT(src.size(), 100u);
  // The program must reference its single input.
  EXPECT_NE(src.find("in[0]"), std::string::npos);
  EXPECT_EQ(src.find("in[1]"), std::string::npos);
}

}  // namespace
}  // namespace awe::core
