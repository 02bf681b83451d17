// Property tests for the batched model entry points and the sweep
// engine's determinism guarantee: moments_batch must match moments_at
// BIT-FOR-BIT on every lane for any batch width (including odd remainder
// tails), and a sweep's results must be bit-identical whatever the thread
// count.  The interpreter's own bit test against the graph is in
// test_interpreter.cpp.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "circuits/fig1_rc.hpp"
#include "core/awesymbolic.hpp"
#include "engine/sweep.hpp"
#include "symbolic/compile.hpp"
#include "symbolic/expr.hpp"

namespace awe {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(RunBatch, RejectsUndersizedSpans) {
  symbolic::ExprGraph g;
  const auto a = g.input(0);
  const auto b = g.input(1);
  const std::vector<symbolic::NodeId> roots = {g.mul(a, b), g.sub(a, b)};
  const symbolic::CompiledProgram prog(g, roots);
  std::vector<double> in(2 * 4), out(2 * 4), scratch(prog.register_count() * 4);
  EXPECT_NO_THROW(prog.run_batch(in, out, scratch, 4));
  EXPECT_THROW(prog.run_batch(std::span<const double>(in.data(), 3), out, scratch, 4),
               std::invalid_argument);
  EXPECT_THROW(prog.run_batch(in, std::span<double>(out.data(), 3), scratch, 4),
               std::invalid_argument);
  EXPECT_THROW(prog.run_batch(in, out, std::span<double>(scratch.data(), 1), 4),
               std::invalid_argument);
}

TEST(MomentsBatch, BitIdenticalToScalarMomentsAt) {
  auto fig = circuits::make_fig1();
  const auto model = core::CompiledModel::build(fig.netlist, {"g2", "c2"},
                                                circuits::Fig1Circuit::kInput, fig.v2,
                                                {.order = 2});
  const std::size_t nsym = model.symbol_count();
  const std::size_t nm = model.moment_count();
  const std::size_t n = 77;

  std::mt19937 rng(99);
  std::uniform_real_distribution<double> vdist(0.2, 3.0);
  std::vector<double> points(nsym * n);
  for (double& v : points) v = vdist(rng);

  std::vector<double> ref(nm * n);
  std::vector<double> vals(nsym);
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t i = 0; i < nsym; ++i) vals[i] = points[i * n + p];
    const auto m = model.moments_at(vals);
    for (std::size_t k = 0; k < nm; ++k) ref[k * n + p] = m[k];
  }

  for (const std::size_t width : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                                  std::size_t{64}}) {
    auto ws = model.make_batch_workspace(width);
    std::vector<double> out(nm * n, 0.0);
    std::vector<unsigned char> ok(n, 0);
    for (std::size_t b = 0; b < n; b += width) {
      const std::size_t w = std::min(width, n - b);
      model.moments_batch(std::span<const double>(points.data() + b, points.size() - b), n,
                          w, ws, std::span<double>(out.data() + b, out.size() - b), n,
                          std::span<unsigned char>(ok.data() + b, w));
    }
    for (std::size_t p = 0; p < n; ++p) ASSERT_TRUE(ok[p]);
    for (std::size_t k = 0; k < nm; ++k)
      for (std::size_t p = 0; p < n; ++p)
        ASSERT_EQ(bits(out[k * n + p]), bits(ref[k * n + p]))
            << "width " << width << " moment " << k << " point " << p;
  }
}

TEST(MomentsBatch, FlagsFailedLanesWhereScalarThrows) {
  // A lane where the scalar path throws must be flagged ok=0 without
  // poisoning its neighbors.  g2 = 0 makes the output float at DC, so
  // det(Y0) — a multiple of g2 — evaluates to exactly zero there.
  auto fig = circuits::make_fig1();
  const auto model = core::CompiledModel::build(fig.netlist, {"g2", "c2"},
                                                circuits::Fig1Circuit::kInput, fig.v2,
                                                {.order = 1});
  const std::size_t n = 5;
  std::vector<double> points{1.0, 0.0, 2.0, 1.5, 0.5,   // g2 row (point 1 singular)
                             1.0, 1.0, 1.0, 1.0, 1.0};  // c2 row
  auto ws = model.make_batch_workspace(n);
  std::vector<double> out(model.moment_count() * n);
  std::vector<unsigned char> ok(n, 1);
  model.moments_batch(points, n, n, ws, out, n, ok);
  EXPECT_FALSE(ok[1]);
  for (const std::size_t p : {0u, 2u, 3u, 4u}) {
    EXPECT_TRUE(ok[p]);
    const auto ref = model.moments_at(std::vector<double>{points[p], 1.0});
    for (std::size_t k = 0; k < model.moment_count(); ++k)
      EXPECT_EQ(bits(out[k * n + p]), bits(ref[k]));
  }
  EXPECT_THROW(model.moments_at(std::vector<double>{0.0, 1.0}), std::domain_error);
}

TEST(SweepDeterminism, IdenticalAcrossThreadCountsAndBatchWidths) {
  auto fig = circuits::make_fig1();
  const auto model = core::CompiledModel::build(fig.netlist, {"g2", "c2"},
                                                circuits::Fig1Circuit::kInput, fig.v2,
                                                {.order = 2});
  const std::vector<sweep::Distribution> dists{sweep::Distribution::uniform(0.3, 3.0),
                                               sweep::Distribution::lognormal(1.0, 0.3)};
  const std::size_t n = 501;  // odd => remainder tails at every width

  sweep::SweepOptions base;
  base.threads = 1;
  base.batch_width = 64;
  base.with_rom = true;
  base.pass_predicate = [](const engine::ReducedOrderModel& rom) {
    return rom.is_stable();
  };
  const auto ref = sweep::monte_carlo(model, dists, n, 7, base);
  ASSERT_EQ(ref.num_points, n);
  ASSERT_EQ(ref.ok_count, n);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    for (const std::size_t width : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
      sweep::SweepOptions opts = base;
      opts.threads = threads;
      opts.batch_width = width;
      const auto got = sweep::monte_carlo(model, dists, n, 7, opts);
      ASSERT_EQ(got.points.size(), ref.points.size());
      for (std::size_t i = 0; i < ref.points.size(); ++i)
        ASSERT_EQ(bits(got.points[i]), bits(ref.points[i]));
      for (std::size_t i = 0; i < ref.moments.size(); ++i)
        ASSERT_EQ(bits(got.moments[i]), bits(ref.moments[i]))
            << "threads " << threads << " width " << width << " slot " << i;
      ASSERT_EQ(got.pass, ref.pass);
      ASSERT_EQ(got.ok, ref.ok);
      ASSERT_EQ(got.pass_count, ref.pass_count);
      ASSERT_TRUE(got.rom && ref.rom);
      for (std::size_t i = 0; i < ref.rom->dc_gain.size(); ++i)
        ASSERT_EQ(bits(got.rom->dc_gain[i]), bits(ref.rom->dc_gain[i]));
      for (std::size_t i = 0; i < ref.rom->poles.size(); ++i) {
        ASSERT_EQ(bits(got.rom->poles[i].real()), bits(ref.rom->poles[i].real()));
        ASSERT_EQ(bits(got.rom->poles[i].imag()), bits(ref.rom->poles[i].imag()));
      }
      for (std::size_t k = 0; k < ref.moment_stats.size(); ++k) {
        ASSERT_EQ(bits(got.moment_stats[k].mean), bits(ref.moment_stats[k].mean));
        ASSERT_EQ(bits(got.moment_stats[k].stddev), bits(ref.moment_stats[k].stddev));
      }
    }
  }
}

}  // namespace
}  // namespace awe
