// Error taxonomy, degradation ladder and health reporting (DESIGN.md §11).
//
// What must hold, and what these tests pin down:
//   - FailError carries a stable FailClass and still IS a
//     std::runtime_error, so pre-taxonomy catch sites keep working;
//   - every previously-untested ROM failure path throws the right class:
//     all-poles-unstable (plain and shifted), order collapse — and the
//     shifted-moment expansion RECOVERS a deck whose Maclaurin expansion
//     is singular;
//   - the sweep engine never aborts on pathological points: each point is
//     fitted, degraded-with-stage, or quarantined-with-FailClass, the
//     disposition counters sum to num_points, and a strict-mode sweep is
//     bit-identical across thread counts — ladder included;
//   - HealthReport arithmetic and JSON are deterministic.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "awe/moments.hpp"
#include "awe/rom.hpp"
#include "circuit/parser.hpp"
#include "core/awesymbolic.hpp"
#include "engine/sweep.hpp"
#include "health/report.hpp"
#include "health/status.hpp"
#include "testing/fuzz.hpp"
#include "testing/oracles.hpp"

namespace awe {
namespace {

using health::FailClass;
using health::FailError;
using health::HealthReport;

// -- taxonomy basics -----------------------------------------------------

TEST(FailClassTest, CodesAreUniqueAndStable) {
  std::set<std::string> codes;
  for (std::size_t i = 0; i < health::kFailClassCount; ++i) {
    const auto c = static_cast<FailClass>(i);
    EXPECT_STRNE(health::to_string(c), "?");
    EXPECT_TRUE(codes.insert(health::code(c)).second)
        << "duplicate code " << health::code(c);
  }
  // Codes appear in JSON reports and fuzz signatures: they must not drift.
  EXPECT_STREQ(health::code(FailClass::kSingularY0), "singular-y0");
  EXPECT_STREQ(health::code(FailClass::kHankelIllConditioned),
               "hankel-ill-conditioned");
  EXPECT_STREQ(health::code(FailClass::kTaskException), "task-exception");
}

TEST(FailClassTest, FailErrorIsRuntimeErrorWithClass) {
  const FailError e(FailClass::kOrderCollapse, "no feasible order");
  EXPECT_EQ(e.fail_class(), FailClass::kOrderCollapse);
  EXPECT_STREQ(e.what(), "no feasible order");
  // Pre-taxonomy EXPECT_THROW(..., std::runtime_error) sites keep passing.
  EXPECT_THROW(throw FailError(FailClass::kSingularY0, "x"), std::runtime_error);
  EXPECT_EQ(health::fail_class_of(e), FailClass::kOrderCollapse);
  const std::runtime_error plain("plain");
  EXPECT_EQ(health::fail_class_of(plain), FailClass::kUnknown);
}

TEST(HealthReportTest, MergeSumsAndJsonIsDeterministic) {
  HealthReport a;
  a.points_total = 10;
  a.points_ok = 8;
  a.points_degraded = 1;
  a.points_quarantined = 1;
  a.strict_reevals = 2;
  a.record_failure(FailClass::kSingularY0);
  HealthReport b = a;
  b.merge(a);
  EXPECT_EQ(b.points_total, 20u);
  EXPECT_EQ(b.strict_reevals, 4u);
  EXPECT_EQ(b.failures(FailClass::kSingularY0), 2u);
  EXPECT_EQ(a.to_json(), a.to_json());
  // Every class key is present whether or not it fired.
  for (std::size_t i = 1; i < health::kFailClassCount; ++i)
    EXPECT_NE(a.to_json().find(health::code(static_cast<FailClass>(i))),
              std::string::npos);
}

// -- ROM failure paths (previously untested) -----------------------------

TEST(RomFailureTest, AllPolesUnstableThrowsClassified) {
  // H = m0 + m1 s with m1/m0 = 1 fits a single pole at +1: the stability
  // filter discards it and nothing remains.
  const std::vector<double> m{1.0, 1.0};
  try {
    (void)engine::ReducedOrderModel::from_moments(
        m, {.order = 1, .enforce_stability = true});
    FAIL() << "expected FailError";
  } catch (const FailError& e) {
    EXPECT_EQ(e.fail_class(), FailClass::kAllPolesUnstable);
  }
}

TEST(RomFailureTest, OrderCollapseThrowsClassified) {
  // All-zero moments admit no Padé order at all, even with fallback.
  const std::vector<double> m{0.0, 0.0};
  try {
    (void)engine::ReducedOrderModel::from_moments(
        m, {.order = 1, .enforce_stability = true, .allow_order_fallback = true});
    FAIL() << "expected FailError";
  } catch (const FailError& e) {
    EXPECT_EQ(e.fail_class(), FailClass::kOrderCollapse);
  }
}

TEST(RomFailureTest, ShiftedAllPolesUnstableThrowsClassified) {
  // Sigma-domain pole at +1 shifts back to +1.5: still unstable.
  const std::vector<double> m{1.0, 1.0};
  try {
    (void)engine::ReducedOrderModel::from_shifted_moments(
        m, {.order = 1, .enforce_stability = true}, 0.5);
    FAIL() << "expected FailError";
  } catch (const FailError& e) {
    EXPECT_EQ(e.fail_class(), FailClass::kAllPolesUnstable);
  }
}

TEST(RomFailureTest, ShiftedExpansionRecoversMaclaurinSingularDeck) {
  // Capacitive divider: no DC path from the output to ground, so G is
  // singular and the s = 0 expansion does not exist — but the transfer
  //   H(s) = [C1/(C1+C2)] / (1 + s R1 C1C2/(C1+C2))
  // is perfectly regular: pole -2e6, high-frequency/divider gain 0.5.
  const auto deck = circuit::parse_deck_string(
      "vin in 0 1\n"
      "r1 in a 1k\n"
      "c1 a b 1n\n"
      "c2 b 0 1n\n"
      ".input vin\n"
      ".output b\n"
      ".end\n");
  const auto out = deck.netlist.find_node("b");
  ASSERT_TRUE(out.has_value());
  EXPECT_THROW(engine::MomentGenerator(deck.netlist), std::runtime_error);

  const double s0 = 1e6;
  engine::MomentGenerator gen(deck.netlist, s0);
  const auto m = gen.transfer_moments("vin", *out, 4);
  const auto rom = engine::ReducedOrderModel::from_shifted_moments(
      m, {.order = 2, .enforce_stability = true}, s0);
  ASSERT_GE(rom.order(), 1u);
  EXPECT_TRUE(rom.is_stable());
  const auto p1 = rom.dominant_pole();
  ASSERT_TRUE(p1.has_value());
  EXPECT_NEAR(p1->real(), -2e6, 2e6 * 1e-6);
  EXPECT_NEAR(rom.dc_gain(), 0.5, 1e-6);
}

// -- sweep degradation ladder --------------------------------------------

core::CompiledModel twopole_model(const core::ModelOptions& mopts = {.order = 2}) {
  const auto deck = circuit::parse_deck_string(
      "vin in 0 1\n"
      "r1 in a 1k\n"
      "c1 a 0 10p\n"
      "r2 a out 2k\n"
      "c2 out 0 5p\n"
      ".symbol r2\n"
      ".symbol c2\n"
      ".input vin\n"
      ".output out\n"
      ".end\n");
  return core::CompiledModel::build(deck.netlist, deck.symbol_elements, "vin",
                                    *deck.netlist.find_node("out"), mopts);
}

TEST(SweepLadderTest, OrderFallbackDegradesInsteadOfFailing) {
  // A one-pole RC compiled at order 2 with the fallback DISABLED: the
  // primary fit hits a singular Hankel system on every point, and the
  // ladder's own order-fallback stage must recover each one.
  const auto deck = circuit::parse_deck_string(
      "vin in 0 1\n"
      "r1 in out 1k\n"
      "c1 out 0 1n\n"
      ".symbol r1\n"
      ".input vin\n"
      ".output out\n"
      ".end\n");
  const auto model = core::CompiledModel::build(
      deck.netlist, deck.symbol_elements, "vin", *deck.netlist.find_node("out"),
      {.order = 2, .enforce_stability = true, .allow_order_fallback = false});

  const std::size_t n = 64;
  std::vector<double> pts(n);
  for (std::size_t p = 0; p < n; ++p) pts[p] = 500.0 + 50.0 * static_cast<double>(p);
  sweep::SweepOptions opts;
  opts.threads = 2;
  opts.with_rom = true;
  const auto res = sweep::run_sweep(model, pts, n, opts);

  EXPECT_EQ(res.ok_count, n);
  EXPECT_EQ(res.health.points_ok, 0u);
  EXPECT_EQ(res.health.points_degraded, n);
  EXPECT_EQ(res.health.points_quarantined, 0u);
  EXPECT_EQ(res.health.order_fallbacks, n);
  for (std::size_t p = 0; p < n; ++p) {
    EXPECT_EQ(res.point_stage(p), sweep::LadderStage::kOrderFallback);
    EXPECT_EQ(res.point_fail_class(p), FailClass::kNone);
    EXPECT_EQ(res.rom->order[p], 1);
  }
}

TEST(SweepLadderTest, PathologicalSweepNeverAbortsAndIsBitIdentical) {
  // 10k-point Monte Carlo with planted singular points (r2 == 0 turns the
  // reciprocal symbol into the scalar path's throw condition).  The sweep
  // must complete, classify every point, keep the disposition counters
  // summing to num_points, and stay bit-identical across thread counts in
  // strict mode — quarantine logic included.
  const auto model = twopole_model();
  const std::size_t n = 10000;
  const std::vector<sweep::Distribution> dists{
      sweep::Distribution::lognormal(2e3, 0.4),
      sweep::Distribution::lognormal(5e-12, 0.4)};
  std::vector<double> pts = sweep::sample_points(dists, n, 20260805);
  std::size_t planted = 0;
  for (std::size_t p = 0; p < n; p += 97) {
    pts[p] = 0.0;  // r2 lane
    ++planted;
  }

  std::vector<sweep::SweepResult> runs;
  for (const std::size_t threads : {1u, 4u, 8u}) {
    sweep::SweepOptions opts;
    opts.threads = threads;
    opts.with_rom = true;
    runs.push_back(sweep::run_sweep(model, pts, n, opts));
  }

  for (const auto& res : runs) {
    EXPECT_EQ(res.health.points_total, n);
    EXPECT_EQ(res.health.points_ok + res.health.points_degraded +
                  res.health.points_quarantined,
              n);
    EXPECT_EQ(res.health.points_quarantined, planted);
    EXPECT_EQ(res.health.failures(FailClass::kSingularY0), planted);
    for (std::size_t p = 0; p < n; ++p) {
      if (p % 97 == 0) {
        EXPECT_EQ(res.point_stage(p), sweep::LadderStage::kQuarantined);
        EXPECT_EQ(res.point_fail_class(p), FailClass::kSingularY0);
        EXPECT_EQ(res.ok[p], 0);
      } else {
        EXPECT_NE(res.point_stage(p), sweep::LadderStage::kQuarantined);
        EXPECT_EQ(res.point_fail_class(p), FailClass::kNone);
      }
    }
  }

  // Bit-identity across 1/4/8 threads: numeric arrays compare bytewise
  // (quarantined lanes hold NaN, so operator== would be false there even
  // for identical bits).
  const auto bytes_equal = [](const auto& a, const auto& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
  };
  const auto& ref = runs[0];
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const auto& r = runs[i];
    EXPECT_TRUE(bytes_equal(r.moments, ref.moments));
    EXPECT_EQ(r.ok, ref.ok);
    EXPECT_EQ(r.fail_class, ref.fail_class);
    EXPECT_EQ(r.ladder_stage, ref.ladder_stage);
    ASSERT_TRUE(r.rom && ref.rom);
    EXPECT_EQ(r.rom->order, ref.rom->order);
    EXPECT_TRUE(bytes_equal(r.rom->poles, ref.rom->poles));
    EXPECT_TRUE(bytes_equal(r.rom->dc_gain, ref.rom->dc_gain));
    EXPECT_EQ(r.health.points_ok, ref.health.points_ok);
    EXPECT_EQ(r.health.points_degraded, ref.health.points_degraded);
    EXPECT_EQ(r.health.fail_counts, ref.health.fail_counts);
  }
}

TEST(SweepLadderTest, MultiOutputCarriesPerOutputHealth) {
  const auto deck = circuit::parse_deck_string(
      "vin in 0 1\n"
      "r1 in a 1k\n"
      "c1 a 0 10p\n"
      "r2 a out 2k\n"
      "c2 out 0 5p\n"
      ".symbol r2\n"
      ".input vin\n"
      ".output a\n"
      ".output out\n"
      ".end\n");
  const auto model = core::MultiOutputModel::build(
      deck.netlist, deck.symbol_elements, "vin",
      {*deck.netlist.find_node("a"), *deck.netlist.find_node("out")}, {.order = 2});
  const std::size_t n = 100;
  std::vector<double> pts(n, 2e3);
  pts[7] = 0.0;  // planted singular point hits BOTH outputs
  sweep::SweepOptions opts;
  opts.threads = 2;
  opts.with_rom = true;
  const auto results = sweep::run_sweep(model, pts, n, opts);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_EQ(r.health.points_total, n);
    EXPECT_EQ(r.health.points_quarantined, 1u);
    EXPECT_EQ(r.point_fail_class(7), FailClass::kSingularY0);
    EXPECT_EQ(r.health.points_ok + r.health.points_degraded +
                  r.health.points_quarantined,
              n);
  }
}

// -- oracle / fuzz routing ----------------------------------------------

TEST(OracleHealthTest, CleanDeckReportsNoFailures) {
  const auto deck = circuit::parse_deck_string(
      "vin in 0 1\n"
      "r1 in out 1k\n"
      "c1 out 0 1n\n"
      ".symbol r1\n"
      ".input vin\n"
      ".output out\n"
      ".end\n");
  const auto r = testing::run_oracles(deck);
  EXPECT_EQ(r.status, testing::OracleStatus::kAgree);
  for (std::size_t i = 0; i < health::kFailClassCount; ++i)
    EXPECT_EQ(r.health.fail_counts[i], 0u) << health::code(static_cast<FailClass>(i));
}

TEST(OracleHealthTest, FuzzSummaryJsonEmbedsHealth) {
  testing::FuzzSummary sum;
  sum.health.record_failure(FailClass::kHankelIllConditioned);
  const std::string json = sum.to_json();
  EXPECT_NE(json.find("\"health\": {"), std::string::npos);
  EXPECT_NE(json.find("\"hankel-ill-conditioned\": 1"), std::string::npos);
  EXPECT_EQ(json, sum.to_json());
}

// -- byte goldens of the two JSON documents -------------------------------
//
// awe_build --health-json and awe_fuzz --json are compared byte for byte
// across runs and builds, so their layout is pinned here exactly: every
// counter distinct, seeds past 2^53, and doubles that need all 17 digits.

TEST(HealthReportTest, JsonGoldenAtBothIndents) {
  HealthReport h;
  std::uint64_t v = 101;
  for (std::size_t i = 1; i < health::kFailClassCount; ++i) h.fail_counts[i] = v++;
  for (std::uint64_t* c :
       {&h.points_total, &h.points_ok, &h.points_degraded, &h.points_quarantined,
        &h.strict_reevals, &h.order_fallbacks, &h.shifted_refits,
        &h.cache_corrupt_quarantined, &h.cache_rebuilds, &h.partition_blocks_reused,
        &h.partition_blocks_built, &h.partition_blocks_quarantined, &h.serve_requests,
        &h.serve_shed, &h.serve_deadline_expired, &h.serve_evicted,
        &h.serve_reload_failures, &h.failpoint_fires})
    *c = v++;
  EXPECT_EQ(h.to_json(0), R"({
  "points": {"total": 113, "ok": 114, "degraded": 115, "quarantined": 116},
  "ladder": {"strict_reevals": 117, "order_fallbacks": 118, "shifted_refits": 119},
  "cache": {"corrupt_quarantined": 120, "rebuilds": 121},
  "partition_blocks": {"reused": 122, "built": 123, "quarantined": 124},
  "serve": {"requests": 125, "shed": 126, "deadline_expired": 127, "evicted": 128, "reload_failures": 129},
  "failpoint_fires": 130,
  "fail_classes": {
    "singular-y0": 101,
    "hankel-ill-conditioned": 102,
    "order-collapse": 103,
    "all-poles-unstable": 104,
    "non-finite-eval": 105,
    "cache-corrupt": 106,
    "injected-fault": 107,
    "task-exception": 108,
    "unknown": 109,
    "model-format": 110,
    "deadline": 111,
    "overloaded": 112
  }
})");
  EXPECT_EQ(h.to_json(2), R"({
    "points": {"total": 113, "ok": 114, "degraded": 115, "quarantined": 116},
    "ladder": {"strict_reevals": 117, "order_fallbacks": 118, "shifted_refits": 119},
    "cache": {"corrupt_quarantined": 120, "rebuilds": 121},
    "partition_blocks": {"reused": 122, "built": 123, "quarantined": 124},
    "serve": {"requests": 125, "shed": 126, "deadline_expired": 127, "evicted": 128, "reload_failures": 129},
    "failpoint_fires": 130,
    "fail_classes": {
      "singular-y0": 101,
      "hankel-ill-conditioned": 102,
      "order-collapse": 103,
      "all-poles-unstable": 104,
      "non-finite-eval": 105,
      "cache-corrupt": 106,
      "injected-fault": 107,
      "task-exception": 108,
      "unknown": 109,
      "model-format": 110,
      "deadline": 111,
      "overloaded": 112
    }
  })");
}

constexpr std::uint64_t kMaxSeed = 18446744073709551615ull;  // 2^64 - 1
constexpr std::uint64_t kBigSeed = 15807225528648180854ull;  // > 2^53

TEST(OracleHealthTest, FuzzSummaryJsonGoldenWithFailures) {
  testing::FuzzSummary sum;
  sum.seed = kMaxSeed;
  sum.count = 2;
  sum.agree = 3;
  sum.mismatch = 4;
  sum.ill_conditioned = 5;
  sum.singular = 6;
  sum.pade_flagged = 7;
  sum.gradients_checked = 8;
  sum.gradients_skipped = 9;
  sum.moments_compared = 10;
  sum.moments_skipped = 11;
  sum.elements_generated = 12;
  sum.max_mna_dim = 13;
  sum.worst_rel_err = 1.0 / 3.0;
  sum.worst_seed = kBigSeed;
  sum.health.record_failure(FailClass::kHankelIllConditioned);
  sum.failures.push_back({kBigSeed,
                          "q\" bs\\ nl\n cr\r tab\t one\x01 us\x1f bs\b ff\f utf8 \xc3\xa9",
                          "r1 a 0 1\n.end\n", "", 0});
  sum.failures.push_back({kMaxSeed, "second", "deck\ttext", "min\\imized", 5});
  EXPECT_EQ(sum.to_json(), R"({
  "seed": 18446744073709551615,
  "count": 2,
  "agree": 3,
  "mismatch": 4,
  "ill_conditioned": 5,
  "singular": 6,
  "pade_flagged": 7,
  "gradients_checked": 8,
  "gradients_skipped": 9,
  "moments_compared": 10,
  "moments_skipped": 11,
  "elements_generated": 12,
  "max_mna_dim": 13,
  "worst_rel_err": 0.33333333333333331,
  "worst_seed": 15807225528648180854,
  "health": {
    "points": {"total": 0, "ok": 0, "degraded": 0, "quarantined": 0},
    "ladder": {"strict_reevals": 0, "order_fallbacks": 0, "shifted_refits": 0},
    "cache": {"corrupt_quarantined": 0, "rebuilds": 0},
    "partition_blocks": {"reused": 0, "built": 0, "quarantined": 0},
    "serve": {"requests": 0, "shed": 0, "deadline_expired": 0, "evicted": 0, "reload_failures": 0},
    "failpoint_fires": 0,
    "fail_classes": {
      "singular-y0": 0,
      "hankel-ill-conditioned": 1,
      "order-collapse": 0,
      "all-poles-unstable": 0,
      "non-finite-eval": 0,
      "cache-corrupt": 0,
      "injected-fault": 0,
      "task-exception": 0,
      "unknown": 0,
      "model-format": 0,
      "deadline": 0,
      "overloaded": 0
    }
  },
  "failures": [
    {
      "seed": 15807225528648180854,
      "detail": "q\" bs\\ nl\n cr\r tab\t one\u0001 us\u001f bs\b ff\f utf8 )"
            "\xc3\xa9" R"(",
      "minimized_elements": 0,
      "deck": "r1 a 0 1\n.end\n",
      "minimized": ""
    },
    {
      "seed": 18446744073709551615,
      "detail": "second",
      "minimized_elements": 5,
      "deck": "deck\ttext",
      "minimized": "min\\imized"
    }
  ]
}
)");
}

TEST(OracleHealthTest, FuzzSummaryJsonGoldenWithoutFailures) {
  testing::FuzzSummary sum;
  sum.seed = kBigSeed;
  sum.count = 1;
  sum.worst_rel_err = 5e-324;
  sum.worst_seed = kMaxSeed;
  EXPECT_EQ(sum.to_json(), R"({
  "seed": 15807225528648180854,
  "count": 1,
  "agree": 0,
  "mismatch": 0,
  "ill_conditioned": 0,
  "singular": 0,
  "pade_flagged": 0,
  "gradients_checked": 0,
  "gradients_skipped": 0,
  "moments_compared": 0,
  "moments_skipped": 0,
  "elements_generated": 0,
  "max_mna_dim": 0,
  "worst_rel_err": 4.9406564584124654e-324,
  "worst_seed": 18446744073709551615,
  "health": {
    "points": {"total": 0, "ok": 0, "degraded": 0, "quarantined": 0},
    "ladder": {"strict_reevals": 0, "order_fallbacks": 0, "shifted_refits": 0},
    "cache": {"corrupt_quarantined": 0, "rebuilds": 0},
    "partition_blocks": {"reused": 0, "built": 0, "quarantined": 0},
    "serve": {"requests": 0, "shed": 0, "deadline_expired": 0, "evicted": 0, "reload_failures": 0},
    "failpoint_fires": 0,
    "fail_classes": {
      "singular-y0": 0,
      "hankel-ill-conditioned": 0,
      "order-collapse": 0,
      "all-poles-unstable": 0,
      "non-finite-eval": 0,
      "cache-corrupt": 0,
      "injected-fault": 0,
      "task-exception": 0,
      "unknown": 0,
      "model-format": 0,
      "deadline": 0,
      "overloaded": 0
    }
  },
  "failures": []
}
)");
}

}  // namespace
}  // namespace awe
