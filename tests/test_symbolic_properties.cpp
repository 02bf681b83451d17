// Property sweeps on the symbolic engine: evaluation homomorphisms,
// substitution/evaluation consistency, compile determinism, and ordering
// invariants.
#include <gtest/gtest.h>

#include <random>

#include "symbolic/compile.hpp"
#include "symbolic/poly_matrix.hpp"
#include "symbolic/polynomial.hpp"
#include "symbolic/rational.hpp"

namespace awe::symbolic {
namespace {

Polynomial random_poly(std::mt19937& rng, std::size_t nv, int max_terms = 6,
                       int max_exp = 3) {
  std::uniform_real_distribution<double> coeff(-2.0, 2.0);
  std::vector<Term> terms;
  const int nt = 1 + static_cast<int>(rng() % max_terms);
  for (int t = 0; t < nt; ++t) {
    Monomial m(nv);
    for (auto& e : m) e = static_cast<std::uint16_t>(rng() % (max_exp + 1));
    terms.push_back({m, coeff(rng)});
  }
  return Polynomial::from_terms(nv, std::move(terms));
}

class SymbolicProperty : public ::testing::TestWithParam<int> {};

TEST_P(SymbolicProperty, SubstituteAllVariablesEqualsEvaluate) {
  std::mt19937 rng(GetParam() * 101 + 7);
  std::uniform_real_distribution<double> val(-1.5, 1.5);
  const std::size_t nv = 3;
  const auto p = random_poly(rng, nv);
  std::vector<double> pt(nv);
  for (auto& v : pt) v = val(rng);
  Polynomial cur = p;
  for (std::size_t i = 0; i < nv; ++i) cur = cur.substitute(i, pt[i]);
  ASSERT_TRUE(cur.is_constant());
  EXPECT_NEAR(cur.constant_value(), p.evaluate(pt), 1e-10);
}

TEST_P(SymbolicProperty, DerivativeMatchesFiniteDifference) {
  std::mt19937 rng(GetParam() * 31 + 3);
  std::uniform_real_distribution<double> val(0.2, 1.2);
  const std::size_t nv = 2;
  const auto p = random_poly(rng, nv);
  std::vector<double> pt{val(rng), val(rng)};
  const double h = 1e-7;
  for (std::size_t i = 0; i < nv; ++i) {
    auto hi = pt, lo = pt;
    hi[i] += h;
    lo[i] -= h;
    const double fd = (p.evaluate(hi) - p.evaluate(lo)) / (2 * h);
    EXPECT_NEAR(p.derivative(i).evaluate(pt), fd, 1e-5 * (std::abs(fd) + 1.0));
  }
}

TEST_P(SymbolicProperty, CompiledProgramIsDeterministicAndFaithful) {
  std::mt19937 rng(GetParam() * 977 + 5);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  const std::size_t nv = 3;
  const auto p = random_poly(rng, nv, 10, 4);
  const auto q = random_poly(rng, nv, 10, 4);

  auto compile_once = [&]() {
    ExprGraph g;
    std::vector<NodeId> vars;
    for (std::size_t i = 0; i < nv; ++i) vars.push_back(g.input(i));
    std::vector<NodeId> roots{lower_polynomial(g, p, vars),
                              lower_polynomial(g, q, vars)};
    return CompiledProgram(g, roots);
  };
  const auto prog1 = compile_once();
  const auto prog2 = compile_once();
  EXPECT_EQ(prog1.instruction_count(), prog2.instruction_count());
  EXPECT_EQ(prog1.register_count(), prog2.register_count());

  for (int t = 0; t < 5; ++t) {
    std::vector<double> pt(nv);
    for (auto& v : pt) v = val(rng);
    std::vector<double> out(2), scratch(prog1.register_count());
    prog1.run_batch(pt, out, scratch, 1);
    EXPECT_NEAR(out[0], p.evaluate(pt), 1e-8 * (1.0 + std::abs(out[0])));
    EXPECT_NEAR(out[1], q.evaluate(pt), 1e-8 * (1.0 + std::abs(out[1])));
  }
}

TEST_P(SymbolicProperty, DeterminantMultiplicativityOnConstMatrices) {
  // det(AB) = det(A) det(B) for constant polynomial matrices.
  std::mt19937 rng(GetParam() * 57 + 11);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  const std::size_t n = 3;
  PolyMatrix a(n, n, 0), b(n, n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = Polynomial::constant(0, val(rng) + (i == j ? 2.0 : 0.0));
      b(i, j) = Polynomial::constant(0, val(rng) + (i == j ? 2.0 : 0.0));
    }
  const double det_ab = determinant(a * b).constant_value();
  const double prod = determinant(a).constant_value() * determinant(b).constant_value();
  EXPECT_NEAR(det_ab, prod, 1e-9 * (1.0 + std::abs(prod)));
}

TEST_P(SymbolicProperty, RationalFieldAxiomsNumeric) {
  std::mt19937 rng(GetParam() * 13 + 29);
  std::uniform_real_distribution<double> val(0.3, 1.7);
  const std::size_t nv = 2;
  const RationalFunction a(random_poly(rng, nv),
                           random_poly(rng, nv) + Polynomial::constant(nv, 4.0));
  const RationalFunction b(random_poly(rng, nv),
                           random_poly(rng, nv) + Polynomial::constant(nv, 4.0));
  std::vector<double> pt{val(rng), val(rng)};
  const double av = a.evaluate(pt), bv = b.evaluate(pt);
  // (a+b)-b == a and (a*b)/b == a pointwise.
  EXPECT_NEAR(((a + b) - b).evaluate(pt), av, 1e-8 * (1.0 + std::abs(av)));
  if (std::abs(bv) > 1e-6) {
    EXPECT_NEAR(((a * b) / b).evaluate(pt), av, 1e-8 * (1.0 + std::abs(av)));
  }
}

TEST_P(SymbolicProperty, MonomialOrderIsStrictWeakOrder) {
  std::mt19937 rng(GetParam() * 3 + 41);
  auto random_mono = [&]() {
    Monomial m(3);
    for (auto& e : m) e = static_cast<std::uint16_t>(rng() % 4);
    return m;
  };
  for (int t = 0; t < 20; ++t) {
    const auto a = random_mono(), b = random_mono(), c = random_mono();
    EXPECT_FALSE(monomial_less(a, a));  // irreflexive
    if (monomial_less(a, b)) {
      EXPECT_FALSE(monomial_less(b, a));  // asymmetric
    }
    if (monomial_less(a, b) && monomial_less(b, c)) {
      EXPECT_TRUE(monomial_less(a, c));  // transitive
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymbolicProperty, ::testing::Range(1, 9));

}  // namespace
}  // namespace awe::symbolic
