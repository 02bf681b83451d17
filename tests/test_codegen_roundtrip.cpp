// C source emission (CompiledModel::export_c_source): golden-source
// snapshots of to_c_source and its emission edge cases (zero-input
// programs, %.17g constant precision, non-finite constants without
// <math.h>).  Compiling and running the exported source is covered by
// test_closed_forms.
//
// The snapshots are exact-string: the same program must always emit the
// same source.  If an intentional emitter change lands, re-record the
// strings here.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "symbolic/compile.hpp"

namespace awe {
namespace {

using symbolic::CompiledProgram;
using symbolic::ExprGraph;
using symbolic::NodeId;

/// r0 = x*y - 2.5, r1 = r0 / (x - (-y)): exercises input, constant, mul,
/// add, neg, sub and div.
CompiledProgram make_sample_program() {
  ExprGraph g;
  const auto x = g.input(0);
  const auto y = g.input(1);
  const auto r0 = g.add(g.mul(x, y), g.constant(-2.5));
  const auto r1 = g.div(r0, g.sub(x, g.neg(y)));
  return CompiledProgram(g, std::vector<NodeId>{r0, r1});
}

TEST(CodegenRoundtripTest, ScalarStrictGoldenSource) {
  const auto prog = make_sample_program();
  EXPECT_EQ(prog.to_c_source("f"),
            "void f(const double* in, double* out) {\n"
            "  double r[4];\n"
            "  r[0] = in[0];\n"
            "  r[1] = in[1];\n"
            "  r[2] = -2.5;\n"
            "  r[3] = r[0] * r[1];\n"
            "  r[3] = r[2] + r[3];\n"
            "  r[1] = -r[1];\n"
            "  r[1] = r[0] - r[1];\n"
            "  r[1] = r[3] / r[1];\n"
            "  out[0] = r[3];\n"
            "  out[1] = r[1];\n"
            "}\n");
}

TEST(CodegenRoundtripTest, ZeroInputProgramEmitsVoidCast) {
  // A constant-only program must still compile warning-clean: the unused
  // `in` parameter is explicitly discarded.
  ExprGraph g;
  const auto c = g.constant(3.0);
  CompiledProgram prog(g, std::vector<NodeId>{c});
  const auto scalar = prog.to_c_source("zi");
  EXPECT_NE(scalar.find("  (void)in;\n"), std::string::npos) << scalar;
}

TEST(CodegenRoundtripTest, ConstantsEmitFullPrecisionAndNonFiniteForms) {
  ExprGraph g;
  const auto x = g.input(0);
  const auto a = g.mul(x, g.constant(0.1));
  const auto b = g.add(a, g.constant(std::numeric_limits<double>::infinity()));
  const auto c = g.add(b, g.constant(-std::numeric_limits<double>::infinity()));
  const auto d = g.add(c, g.constant(std::nan("")));
  CompiledProgram prog(g, std::vector<NodeId>{d});
  const auto src = prog.to_c_source("k");
  // %.17g: 0.1 round-trips to the exact stored double.
  EXPECT_NE(src.find("0.10000000000000001"), std::string::npos) << src;
  // Non-finite constants become IEEE division expressions, keeping the
  // source self-contained (no <math.h> INFINITY/NAN macros).
  EXPECT_NE(src.find("(1.0 / 0.0)"), std::string::npos) << src;
  EXPECT_NE(src.find("(-1.0 / 0.0)"), std::string::npos) << src;
  EXPECT_NE(src.find("(0.0 / 0.0)"), std::string::npos) << src;
}

}  // namespace
}  // namespace awe
