// Golden tests for the sweep drivers (monte_carlo / grid_sweep / corners)
// on the paper's fig1 RC, cross-validated point-by-point against
// CompiledModel::evaluate / moments_at and the uncompiled reference path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "circuits/fig1_rc.hpp"
#include "core/awesymbolic.hpp"
#include "engine/sweep.hpp"

namespace awe {
namespace {

core::CompiledModel fig1_model(std::size_t order = 2) {
  auto fig = circuits::make_fig1();
  return core::CompiledModel::build(fig.netlist, {"g2", "c2"},
                                    circuits::Fig1Circuit::kInput, fig.v2,
                                    {.order = order});
}

TEST(GridSweep, MatchesPerPointEvaluationAndUncompiledReference) {
  const auto model = fig1_model();
  const std::vector<sweep::Axis> axes{{.lo = 0.5, .hi = 2.0, .count = 4},
                                      {.lo = 0.25, .hi = 4.0, .count = 3, .log_scale = true}};
  sweep::SweepOptions gopts;
  gopts.threads = 2;
  gopts.batch_width = 5;
  const auto res = sweep::grid_sweep(model, axes, gopts);
  ASSERT_EQ(res.num_points, 12u);
  ASSERT_EQ(res.ok_count, 12u);
  ASSERT_EQ(res.num_moments, 4u);

  for (std::size_t p = 0; p < res.num_points; ++p) {
    const std::vector<double> vals{res.point(0, p), res.point(1, p)};
    const auto direct = model.moments_at(vals);
    const auto uncompiled = model.moments_uncompiled(vals);
    for (std::size_t k = 0; k < res.num_moments; ++k) {
      EXPECT_EQ(res.moment(k, p), direct[k]);  // same compiled path, same bits
      EXPECT_NEAR(res.moment(k, p), uncompiled[k],
                  1e-10 * (std::abs(uncompiled[k]) + 1e-15));
    }
  }

  // Grid geometry: axis 0 linear {0.5, 1.0, 1.5, 2.0}, axis 1 geometric
  // {0.25, 1.0, 4.0}, last axis fastest.
  EXPECT_DOUBLE_EQ(res.point(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(res.point(1, 0), 0.25);
  EXPECT_DOUBLE_EQ(res.point(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(res.point(1, 2), 4.0);
  EXPECT_DOUBLE_EQ(res.point(0, 3), 1.0);
  EXPECT_DOUBLE_EQ(res.point(0, 11), 2.0);

  // Stats agree with a direct serial reduction.
  for (std::size_t k = 0; k < res.num_moments; ++k) {
    double mn = 1e300, mx = -1e300, sum = 0.0;
    for (std::size_t p = 0; p < res.num_points; ++p) {
      mn = std::min(mn, res.moment(k, p));
      mx = std::max(mx, res.moment(k, p));
      sum += res.moment(k, p);
    }
    EXPECT_EQ(res.moment_stats[k].count, res.num_points);
    EXPECT_DOUBLE_EQ(res.moment_stats[k].min, mn);
    EXPECT_DOUBLE_EQ(res.moment_stats[k].max, mx);
    EXPECT_NEAR(res.moment_stats[k].mean, sum / 12.0,
                1e-12 * (std::abs(sum) + 1.0));
    EXPECT_GE(res.moment_stats[k].stddev, 0.0);
  }
}

TEST(Corners, EnumeratesAllCombinationsLowBitFirst) {
  const auto model = fig1_model();
  const std::vector<sweep::Corner> ext{{.lo = 0.5, .hi = 2.0}, {.lo = 0.8, .hi = 1.2}};
  sweep::SweepOptions copts;
  copts.threads = 1;
  const auto res = sweep::corners(model, ext, copts);
  ASSERT_EQ(res.num_points, 4u);
  ASSERT_EQ(res.ok_count, 4u);
  const double exp[4][2] = {{0.5, 0.8}, {2.0, 0.8}, {0.5, 1.2}, {2.0, 1.2}};
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_DOUBLE_EQ(res.point(0, p), exp[p][0]);
    EXPECT_DOUBLE_EQ(res.point(1, p), exp[p][1]);
    const auto direct = model.moments_at(std::vector<double>{exp[p][0], exp[p][1]});
    for (std::size_t k = 0; k < res.num_moments; ++k)
      EXPECT_EQ(res.moment(k, p), direct[k]);
  }
}

TEST(MonteCarlo, RomSamplesAndYieldCrossValidateAgainstEvaluate) {
  const auto model = fig1_model();
  const std::vector<sweep::Distribution> dists{sweep::Distribution::uniform(0.4, 2.5),
                                               sweep::Distribution::normal(1.0, 0.1)};
  sweep::SweepOptions opts;
  opts.threads = 2;
  opts.batch_width = 32;
  opts.with_rom = true;
  // Pole-location yield criterion: dominant pole at least 0.2 rad/s into
  // the left half-plane.
  opts.pass_predicate = [](const engine::ReducedOrderModel& rom) {
    const auto p = rom.dominant_pole();
    return p.has_value() && p->real() < -0.2;
  };
  const std::size_t n = 300;
  const auto res = sweep::monte_carlo(model, dists, n, 123, opts);
  ASSERT_EQ(res.ok_count, n);
  ASSERT_TRUE(res.rom.has_value());
  ASSERT_TRUE(res.dc_gain_stats.has_value());
  ASSERT_EQ(res.pass.size(), n);

  // Same seed => identical run.
  const auto res2 = sweep::monte_carlo(model, dists, n, 123, opts);
  EXPECT_EQ(res.points, res2.points);
  EXPECT_EQ(res.pass_count, res2.pass_count);

  std::size_t expected_pass = 0;
  for (std::size_t p = 0; p < n; p += 7) {
    const std::vector<double> vals{res.point(0, p), res.point(1, p)};
    const auto rom = model.evaluate(vals);
    ASSERT_EQ(res.rom->order[p], rom.order());
    for (std::size_t j = 0; j < rom.order(); ++j) {
      EXPECT_EQ(res.rom->poles[p * res.rom->max_order + j], rom.poles()[j]);
      EXPECT_EQ(res.rom->residues[p * res.rom->max_order + j], rom.residues()[j]);
    }
    EXPECT_EQ(res.rom->dc_gain[p], rom.dc_gain());
    EXPECT_EQ(res.pass[p] != 0, opts.pass_predicate(rom));
  }
  for (std::size_t p = 0; p < n; ++p) expected_pass += res.pass[p];
  EXPECT_EQ(res.pass_count, expected_pass);
  EXPECT_NEAR(res.yield(), static_cast<double>(expected_pass) / n, 1e-15);

  // The fig1 RC at these values is always stable; the DC gain of the
  // two-section divider is G1G2/(G1G2) = 1 at every point.
  EXPECT_NEAR(res.dc_gain_stats->mean, 1.0, 1e-9);
  EXPECT_EQ(res.dc_gain_stats->count, n);
}

TEST(Drivers, ValidateArguments) {
  const auto model = fig1_model();
  const std::vector<sweep::Distribution> one{sweep::Distribution::normal(1.0, 0.1)};
  EXPECT_THROW(sweep::monte_carlo(model, one, 10), std::invalid_argument);
  const std::vector<sweep::Axis> bad{{.lo = -1.0, .hi = 2.0, .count = 3, .log_scale = true},
                                     {.lo = 1.0, .hi = 2.0, .count = 2}};
  EXPECT_THROW(sweep::grid_sweep(model, bad), std::invalid_argument);
  EXPECT_THROW(sweep::run_sweep(model, std::vector<double>(3), 2), std::invalid_argument);
  EXPECT_THROW(sweep::corners(model, std::vector<sweep::Corner>{{0.5, 2.0}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace awe
