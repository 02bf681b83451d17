#include <gtest/gtest.h>

#include <random>

#include "symbolic/compile.hpp"
#include "symbolic/expr.hpp"

namespace awe::symbolic {
namespace {

TEST(ExprGraph, HashConsingDeduplicates) {
  ExprGraph g;
  const auto x = g.input(0);
  const auto y = g.input(1);
  const auto a = g.add(x, y);
  const auto b = g.add(y, x);  // commutative canonicalization
  EXPECT_EQ(a, b);
  const auto m1 = g.mul(a, a);
  const auto m2 = g.mul(a, a);
  EXPECT_EQ(m1, m2);
}

TEST(ExprGraph, ConstantFolding) {
  ExprGraph g;
  const auto c = g.add(g.constant(2.0), g.constant(3.0));
  EXPECT_EQ(g.node(c).op, OpCode::kConst);
  EXPECT_DOUBLE_EQ(g.node(c).value, 5.0);
}

TEST(ExprGraph, AlgebraicIdentities) {
  ExprGraph g;
  const auto x = g.input(0);
  EXPECT_EQ(g.add(x, g.constant(0.0)), x);
  EXPECT_EQ(g.mul(x, g.constant(1.0)), x);
  EXPECT_EQ(g.node(g.mul(x, g.constant(0.0))).op, OpCode::kConst);
  EXPECT_EQ(g.sub(x, g.constant(0.0)), x);
  EXPECT_EQ(g.div(x, g.constant(1.0)), x);
  EXPECT_EQ(g.neg(g.neg(x)), x);
  EXPECT_EQ(g.node(g.sub(x, x)).op, OpCode::kConst);
  EXPECT_EQ(g.node(g.div(x, x)).op, OpCode::kConst);
}

TEST(ExprGraph, DivByConstantZeroThrows) {
  ExprGraph g;
  EXPECT_THROW(g.div(g.input(0), g.constant(0.0)), std::domain_error);
}

TEST(ExprGraph, PowBinaryExponentiation) {
  ExprGraph g;
  const auto x = g.input(0);
  const auto p = g.pow(x, 13);
  const double v = g.evaluate_node(p, std::vector<double>{1.5});
  EXPECT_NEAR(v, std::pow(1.5, 13), 1e-9);
  EXPECT_EQ(g.node(g.pow(x, 0)).op, OpCode::kConst);
  EXPECT_EQ(g.pow(x, 1), x);
}

TEST(CompiledProgram, MatchesReferenceEvaluation) {
  ExprGraph g;
  const auto x = g.input(0);
  const auto y = g.input(1);
  const auto e1 = g.add(g.mul(x, y), g.constant(2.0));
  const auto e2 = g.div(g.sub(x, y), e1);
  const auto e3 = g.neg(g.mul(e1, e2));
  const std::vector<NodeId> roots{e1, e2, e3};
  CompiledProgram prog(g, roots);
  EXPECT_EQ(prog.output_count(), 3u);

  std::mt19937 rng(17);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  for (int i = 0; i < 30; ++i) {
    const std::vector<double> in{dist(rng), dist(rng)};
    std::vector<double> out(3), scratch(prog.register_count());
    prog.run_batch(in, out, scratch, 1);
    for (std::size_t k = 0; k < roots.size(); ++k)
      EXPECT_NEAR(out[k], g.evaluate_node(roots[k], in), 1e-12);
  }
}

TEST(CompiledProgram, RegisterRecyclingBoundsRegisterCount) {
  // A long chain a_{i+1} = a_i * a_i + x should need O(1) registers.
  ExprGraph g;
  NodeId acc = g.input(0);
  for (int i = 0; i < 100; ++i) acc = g.add(g.mul(acc, acc), g.input(0));
  CompiledProgram prog(g, std::vector<NodeId>{acc});
  EXPECT_LE(prog.register_count(), 8u);
}

TEST(CompiledProgram, SharedSubgraphEvaluatedOnce) {
  ExprGraph g;
  const auto x = g.input(0);
  const auto shared = g.mul(g.add(x, g.constant(1.0)), g.add(x, g.constant(1.0)));
  const auto r1 = g.add(shared, g.constant(2.0));
  const auto r2 = g.mul(shared, g.constant(3.0));
  CompiledProgram prog(g, std::vector<NodeId>{r1, r2});
  // x, x+1, shared(=mul of same node -> 1 op), r1, r2, plus 3 consts.
  EXPECT_LE(prog.instruction_count(), 8u);
}

TEST(LowerPolynomial, HornerEvaluationCorrect) {
  // p = 3 x0^3 + 2 x0 x1 + x1^2 + 5
  const auto nv = 2u;
  const auto x0 = Polynomial::variable(nv, 0);
  const auto x1 = Polynomial::variable(nv, 1);
  const auto p = 3.0 * x0 * x0 * x0 + 2.0 * x0 * x1 + x1 * x1 +
                 Polynomial::constant(nv, 5.0);
  ExprGraph g;
  const std::vector<NodeId> vars{g.input(0), g.input(1)};
  const auto root = lower_polynomial(g, p, vars);
  CompiledProgram prog(g, std::vector<NodeId>{root});
  std::mt19937 rng(23);
  std::uniform_real_distribution<double> dist(-3.0, 3.0);
  for (int i = 0; i < 30; ++i) {
    const std::vector<double> pt{dist(rng), dist(rng)};
    std::vector<double> out(1), scratch(prog.register_count());
    prog.run_batch(pt, out, scratch, 1);
    EXPECT_NEAR(out[0], p.evaluate(pt), 1e-9 * (1.0 + std::abs(p.evaluate(pt))));
  }
}

TEST(LowerPolynomial, ZeroPolynomial) {
  ExprGraph g;
  const std::vector<NodeId> vars{g.input(0)};
  const auto root = lower_polynomial(g, Polynomial(1), vars);
  EXPECT_EQ(g.node(root).op, OpCode::kConst);
  EXPECT_DOUBLE_EQ(g.node(root).value, 0.0);
}

TEST(LowerRational, DividesNumeratorByDenominator) {
  const auto x0 = Polynomial::variable(1, 0);
  const RationalFunction rf(x0 + Polynomial::constant(1, 1.0),
                            x0 + Polynomial::constant(1, 2.0));
  ExprGraph g;
  const std::vector<NodeId> vars{g.input(0)};
  const auto root = lower_rational(g, rf, vars);
  CompiledProgram prog(g, std::vector<NodeId>{root});
  std::vector<double> out(1), scratch(prog.register_count());
  prog.run_batch(std::vector<double>{3.0}, out, scratch, 1);
  EXPECT_NEAR(out[0], 4.0 / 5.0, 1e-12);
}

TEST(CompiledProgram, HornerOpCountBeatsTermByTerm) {
  // Dense degree-8 univariate polynomial: Horner should need ~8 mults +
  // 8 adds (plus constant loads), far below the naive 36 multiplications.
  std::vector<Term> terms;
  for (std::uint16_t e = 0; e <= 8; ++e)
    terms.push_back({Monomial{e}, static_cast<double>(e + 1)});
  const auto p = Polynomial::from_terms(1, std::move(terms));
  ExprGraph g;
  const std::vector<NodeId> vars{g.input(0)};
  const auto root = lower_polynomial(g, p, vars);
  CompiledProgram prog(g, std::vector<NodeId>{root});
  EXPECT_LE(prog.instruction_count(), 30u);
}

}  // namespace
}  // namespace awe::symbolic
