// Tests for the register interpreter's contract: every lane of run_batch()
// is bit-for-bit identical to an independent node-by-node evaluation of the
// graph across every batch width, and undersized spans are rejected instead
// of read out of bounds.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "expr_reference.hpp"
#include "symbolic/compile.hpp"
#include "symbolic/expr.hpp"

namespace awe::symbolic {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Random expression DAG.  Division is kept pole-free (denominator
/// b*b + c with c > 0) so lanes stay finite.  With `horner`, one op in six
/// is the a*b + c shape polynomial lowering emits.
struct RandomDag {
  ExprGraph graph;
  std::vector<NodeId> nodes;
  std::vector<NodeId> roots;
};

RandomDag random_dag(std::mt19937& rng, std::size_t ninputs, std::size_t nops,
                     std::size_t nroots, bool horner) {
  RandomDag d;
  for (std::size_t i = 0; i < ninputs; ++i)
    d.nodes.push_back(d.graph.input(static_cast<std::uint32_t>(i)));
  std::uniform_real_distribution<double> cdist(-1.5, 1.5);
  for (int i = 0; i < 4; ++i) d.nodes.push_back(d.graph.constant(cdist(rng)));

  std::uniform_int_distribution<std::size_t> op(0, horner ? 5 : 4);
  for (std::size_t i = 0; i < nops; ++i) {
    std::uniform_int_distribution<std::size_t> pick(0, d.nodes.size() - 1);
    const auto a = d.nodes[pick(rng)];
    const auto b = d.nodes[pick(rng)];
    ExprGraph& g = d.graph;
    switch (op(rng)) {
      case 0: d.nodes.push_back(g.add(a, b)); break;
      case 1: d.nodes.push_back(g.sub(a, b)); break;
      case 2: d.nodes.push_back(g.mul(a, b)); break;
      case 3: d.nodes.push_back(g.div(a, g.add(g.mul(b, b), g.constant(0.25)))); break;
      case 4: d.nodes.push_back(g.neg(a)); break;
      default: d.nodes.push_back(g.add(g.mul(a, b), d.nodes[pick(rng)])); break;
    }
  }
  std::uniform_int_distribution<std::size_t> pick(0, d.nodes.size() - 1);
  for (std::size_t k = 0; k < nroots; ++k) d.roots.push_back(d.nodes[pick(rng)]);
  return d;
}

/// One random-DAG family: its seed, trial count, op-count schedule and
/// whether the Horner shape is mixed in.
struct Family {
  unsigned seed;
  int trials;
  std::size_t base_ops, ops_step;
  bool horner;
};

/// run_batch at widths {1, 3, 8, 64} over n = 131 points (an odd tail at
/// every width above 1) must match node_values on the graph bit for bit.
void expect_run_batch_matches_node_values(const Family f) {
  std::mt19937 rng(f.seed);
  std::uniform_real_distribution<double> vdist(-2.0, 2.0);
  for (int trial = 0; trial < f.trials; ++trial) {
    const std::size_t ninputs = 1 + trial % 4;
    auto dag = random_dag(rng, ninputs, f.base_ops + f.ops_step * trial, 3, f.horner);
    const CompiledProgram prog(dag.graph, dag.roots);
    const std::size_t nout = prog.output_count();

    const std::size_t n = 131;  // odd tail at every width above 1
    std::vector<double> points(ninputs * n);
    for (double& v : points) v = vdist(rng);

    // Graph reference, point by point.
    std::vector<double> ref(nout * n);
    std::vector<double> in(ninputs);
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t i = 0; i < ninputs; ++i) in[i] = points[i * n + p];
      const auto v = awe::testing::node_values(dag.graph, in);
      for (std::size_t k = 0; k < nout; ++k) ref[k * n + p] = v[dag.roots[k]];
    }

    for (const std::size_t width : {1u, 3u, 8u, 64u}) {
      std::vector<double> soa_in(ninputs * width), soa_out(nout * width);
      std::vector<double> scratch(prog.register_count() * width);
      for (std::size_t b = 0; b < n; b += width) {
        const std::size_t w = std::min(width, n - b);
        for (std::size_t i = 0; i < ninputs; ++i)
          for (std::size_t l = 0; l < w; ++l) soa_in[i * w + l] = points[i * n + b + l];
        prog.run_batch(std::span<const double>(soa_in.data(), ninputs * w),
                       std::span<double>(soa_out.data(), nout * w),
                       std::span<double>(scratch.data(), prog.register_count() * w), w);
        for (std::size_t k = 0; k < nout; ++k)
          for (std::size_t l = 0; l < w; ++l)
            ASSERT_EQ(bits(soa_out[k * w + l]), bits(ref[k * n + b + l]))
                << "seed " << f.seed << " trial " << trial << " width " << width
                << " point " << b + l << " output " << k;
      }
    }
  }
}

TEST(FusionPass, StrictBatchBitIdenticalToRunAcrossWidths) {
  expect_run_batch_matches_node_values({71, 12, 50, 9, /*horner=*/true});
}

TEST(RunBatch, BitIdenticalToScalarAcrossWidthsAndTails) {
  expect_run_batch_matches_node_values({2024, 20, 40, 7, /*horner=*/false});
}

TEST(RunBatch, ValidatesSpanSizesAndZeroCountIsNoop) {
  ExprGraph g;
  const auto r = g.add(g.mul(g.input(0), g.input(1)), g.input(0));
  CompiledProgram prog(g, std::vector<NodeId>{r});
  const std::size_t w = 4;
  std::vector<double> in(2 * w, 1.0), out(w), scratch(prog.register_count() * w);
  EXPECT_NO_THROW(prog.run_batch(in, out, scratch, w));
  EXPECT_THROW(prog.run_batch(std::span<const double>(in.data(), 2 * w - 1), out,
                              scratch, w),
               std::invalid_argument);
  EXPECT_THROW(prog.run_batch(in, std::span<double>(out.data(), w - 1), scratch, w),
               std::invalid_argument);
  EXPECT_THROW(prog.run_batch(in, out, std::span<double>(scratch.data(), 1), w),
               std::invalid_argument);
  // count == 0 touches nothing.
  std::vector<double> empty;
  EXPECT_NO_THROW(prog.run_batch(empty, empty, empty, 0));
}

}  // namespace
}  // namespace awe::symbolic
