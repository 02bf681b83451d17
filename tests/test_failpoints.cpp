// Deterministic fault injection (DESIGN.md §11).
//
// What must hold, and what these tests pin down:
//   - the failpoint registry / arming grammar behaves as documented
//     (always / once / nth:<k> / off, AWE_FAILPOINTS spec parsing,
//     unknown sites and malformed modes rejected, reset() disarms);
//   - each production site actually injects: LU and sparse-LU report a
//     singular factorization (LU also inside the sweep's ROM fit kernel,
//     which factors in place), the partition moment solve and thread-pool
//     tasks throw FailError(kInjectedFault), and the pool survives it;
//   - every cache-corruption mode (torn store, truncation, bit flip,
//     load-side corruption) degrades to quarantine + rebuild — the
//     damaged entry lands at <path>.bad, a fresh entry replaces it, and
//     NO exception ever reaches the caller.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/parser.hpp"
#include "circuits/opamp741.hpp"
#include "core/model_cache.hpp"
#include "engine/sweep.hpp"
#include "engine/thread_pool.hpp"
#include "health/failpoints.hpp"
#include "health/report.hpp"
#include "health/status.hpp"
#include "linalg/lu.hpp"
#include "linalg/sparse.hpp"
#include "linalg/sparse_lu.hpp"
#include "partition/block_store.hpp"

namespace awe {
namespace {

namespace fp = health::failpoints;
using health::FailClass;
using health::FailError;

/// Every test must leave the process with no armed sites, whatever path
/// it exits through.
struct FailpointGuard {
  FailpointGuard() { fp::reset(); }
  ~FailpointGuard() { fp::reset(); }
};

// -- registry and arming grammar -----------------------------------------

TEST(FailpointsTest, RegistryListsEverySite) {
  const auto sites = fp::registered_sites();
  for (const char* s :
       {fp::sites::kLuSingular, fp::sites::kSparseSingular,
        fp::sites::kPartitionMomentSolve, fp::sites::kCacheStoreTruncate,
        fp::sites::kCacheStoreBitflip, fp::sites::kCacheStoreCrash,
        fp::sites::kCacheLoadCorrupt, fp::sites::kThreadPoolTask}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), s), sites.end()) << s;
  }
}

TEST(FailpointsTest, DisabledByDefaultAndAfterReset) {
  FailpointGuard guard;
  EXPECT_FALSE(fp::enabled());
  EXPECT_FALSE(fp::fires(fp::sites::kLuSingular));
  fp::arm(fp::sites::kLuSingular, "always");
  EXPECT_TRUE(fp::enabled());
  fp::reset();
  EXPECT_FALSE(fp::enabled());
  EXPECT_FALSE(fp::fires(fp::sites::kLuSingular));
  EXPECT_EQ(fp::fire_count(fp::sites::kLuSingular), 0u);
}

TEST(FailpointsTest, ModesFireOnSchedule) {
  FailpointGuard guard;
  fp::arm(fp::sites::kLuSingular, "once");
  EXPECT_TRUE(fp::fires(fp::sites::kLuSingular));
  EXPECT_FALSE(fp::fires(fp::sites::kLuSingular));
  EXPECT_EQ(fp::fire_count(fp::sites::kLuSingular), 1u);

  fp::reset();
  fp::arm(fp::sites::kSparseSingular, "nth:3");
  EXPECT_FALSE(fp::fires(fp::sites::kSparseSingular));
  EXPECT_FALSE(fp::fires(fp::sites::kSparseSingular));
  EXPECT_TRUE(fp::fires(fp::sites::kSparseSingular));
  EXPECT_FALSE(fp::fires(fp::sites::kSparseSingular));
  EXPECT_EQ(fp::fire_count(fp::sites::kSparseSingular), 1u);

  fp::reset();
  fp::arm(fp::sites::kLuSingular, "always");
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(fp::fires(fp::sites::kLuSingular));
  EXPECT_EQ(fp::fire_count(fp::sites::kLuSingular), 5u);
  fp::arm(fp::sites::kLuSingular, "off");
  EXPECT_FALSE(fp::fires(fp::sites::kLuSingular));
}

TEST(FailpointsTest, SpecParsingMatchesEnvGrammar) {
  FailpointGuard guard;
  fp::arm_from_spec("");  // no-op
  EXPECT_FALSE(fp::enabled());
  fp::arm_from_spec("linalg.lu_singular=once,thread_pool.task=nth:2");
  EXPECT_TRUE(fp::fires(fp::sites::kLuSingular));
  EXPECT_FALSE(fp::fires(fp::sites::kThreadPoolTask));
  EXPECT_TRUE(fp::fires(fp::sites::kThreadPoolTask));
}

TEST(FailpointsTest, RejectsUnknownSitesAndBadModes) {
  FailpointGuard guard;
  EXPECT_THROW(fp::arm("no.such_site", "always"), std::invalid_argument);
  EXPECT_THROW(fp::arm(fp::sites::kLuSingular, "sometimes"), std::invalid_argument);
  EXPECT_THROW(fp::arm(fp::sites::kLuSingular, "nth:0"), std::invalid_argument);
  EXPECT_THROW(fp::arm_from_spec("linalg.lu_singular"), std::invalid_argument);
  EXPECT_FALSE(fp::enabled());
}

TEST(FailpointsTest, MaybeFailThrowsClassifiedNamingSite) {
  FailpointGuard guard;
  fp::maybe_fail(fp::sites::kPartitionMomentSolve);  // disarmed: no-op
  fp::arm(fp::sites::kPartitionMomentSolve, "once");
  try {
    fp::maybe_fail(fp::sites::kPartitionMomentSolve);
    FAIL() << "expected FailError";
  } catch (const FailError& e) {
    EXPECT_EQ(e.fail_class(), FailClass::kInjectedFault);
    EXPECT_NE(std::string(e.what()).find(fp::sites::kPartitionMomentSolve),
              std::string::npos);
  }
  fp::maybe_fail(fp::sites::kPartitionMomentSolve);  // disarmed again
}

// -- linalg and thread-pool sites ----------------------------------------

TEST(FailpointsTest, LuSiteForcesSingularResult) {
  FailpointGuard guard;
  const linalg::Matrix id{{1.0, 0.0}, {0.0, 1.0}};
  ASSERT_TRUE(linalg::LuFactorization::factor(id).has_value());
  fp::arm(fp::sites::kLuSingular, "once");
  EXPECT_FALSE(linalg::LuFactorization::factor(id).has_value());
  EXPECT_TRUE(linalg::LuFactorization::factor(id).has_value());
}

TEST(FailpointsTest, LuSiteReachesTheSweepFitKernel) {
  // The ROM fit lane kernel factors each point's Hankel system in place,
  // but must still consult the LU site once per factorization.  Without
  // Padé order fallback that is one check per point, so nth:k lands on
  // point k-1 of a 1-thread sweep: its primary fit fails and the ladder's
  // order-fallback rung recovers it.  The model is built before arming —
  // the build factors matrices too.
  FailpointGuard guard;
  const auto amp = circuits::make_opamp741();
  const auto model = core::CompiledModel::build(
      amp.netlist,
      {circuits::Opamp741Circuit::kSymbolGout, circuits::Opamp741Circuit::kSymbolCcomp},
      circuits::Opamp741Circuit::kInput, amp.out,
      {.order = 2, .allow_order_fallback = false});
  const std::size_t n = 2048, k = 1000;
  const std::vector<sweep::Distribution> dists{
      sweep::Distribution::lognormal(1.0 / 75.0, 0.3),
      sweep::Distribution::lognormal(30e-12, 0.3)};
  const std::vector<double> pts = sweep::sample_points(dists, n, 2026);
  sweep::SweepOptions opts;
  opts.threads = 1;
  opts.with_rom = true;
  const sweep::SweepResult clean = sweep::run_sweep(model, pts, n, opts);
  ASSERT_EQ(clean.health.points_ok, n);

  fp::arm(fp::sites::kLuSingular, "nth:" + std::to_string(k));
  const sweep::SweepResult hit = sweep::run_sweep(model, pts, n, opts);
  EXPECT_EQ(fp::fire_count(fp::sites::kLuSingular), 1u);
  EXPECT_EQ(hit.health.points_ok, n - 1);
  EXPECT_EQ(hit.health.order_fallbacks, 1u);
  EXPECT_EQ(hit.point_stage(k - 1), sweep::LadderStage::kOrderFallback);
  // The fallback refits the same order-2 approximant, so every point's ROM
  // — the injected one's included — keeps its bits.
  const auto bytes_equal = [](const auto& a, const auto& b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
  };
  EXPECT_TRUE(bytes_equal(hit.rom->order, clean.rom->order));
  EXPECT_TRUE(bytes_equal(hit.rom->poles, clean.rom->poles));
  EXPECT_TRUE(bytes_equal(hit.rom->residues, clean.rom->residues));
  EXPECT_TRUE(bytes_equal(hit.rom->dc_gain, clean.rom->dc_gain));
  for (std::size_t p = 0; p < n; ++p) {
    if (p == k - 1) continue;
    EXPECT_EQ(hit.point_stage(p), sweep::LadderStage::kPrimary) << p;
  }
}

TEST(FailpointsTest, Order2FitWithFallbackConsultsLuSiteThreeTimesPerPoint) {
  // With Padé order fallback an order-2 fit factors three times — the
  // q = 1 and q = 2 feasibility probes, then the solve — and consults the
  // LU site once each, so on a 1-thread sweep check 3j + c belongs to point
  // j.  c = 1 (the q = 1 probe) changes nothing, as q = 2 stays feasible;
  // c = 2 (the q = 2 probe) drops point j to an order-1 fit on the primary
  // stage; c = 3 (the solve) fails point j's primary fit and sends it down
  // the ladder to the shifted refit.  No other point changes by a bit.
  FailpointGuard guard;
  const auto amp = circuits::make_opamp741();
  const auto model = core::CompiledModel::build(
      amp.netlist,
      {circuits::Opamp741Circuit::kSymbolGout, circuits::Opamp741Circuit::kSymbolCcomp},
      circuits::Opamp741Circuit::kInput, amp.out, {.order = 2});
  const std::size_t n = 256;
  const std::vector<sweep::Distribution> dists{
      sweep::Distribution::lognormal(1.0 / 75.0, 0.3),
      sweep::Distribution::lognormal(30e-12, 0.3)};
  const std::vector<double> pts = sweep::sample_points(dists, n, 2026);
  sweep::SweepOptions opts;
  opts.threads = 1;
  opts.with_rom = true;
  const sweep::SweepResult clean = sweep::run_sweep(model, pts, n, opts);
  ASSERT_EQ(clean.health.points_ok, n);
  const std::size_t q = clean.rom->max_order;
  const auto same_point = [&](const sweep::SweepResult& r, std::size_t p) {
    return r.rom->order[p] == clean.rom->order[p] &&
           std::memcmp(&r.rom->poles[p * q], &clean.rom->poles[p * q],
                       q * sizeof(clean.rom->poles[0])) == 0 &&
           std::memcmp(&r.rom->residues[p * q], &clean.rom->residues[p * q],
                       q * sizeof(clean.rom->residues[0])) == 0 &&
           std::memcmp(&r.rom->dc_gain[p], &clean.rom->dc_gain[p], sizeof(double)) == 0 &&
           r.ladder_stage[p] == clean.ladder_stage[p];
  };
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t c = 1; c <= 3; ++c) {
      SCOPED_TRACE("point " + std::to_string(j) + ", check " + std::to_string(c));
      fp::reset();
      fp::arm(fp::sites::kLuSingular, "nth:" + std::to_string(3 * j + c));
      const sweep::SweepResult hit = sweep::run_sweep(model, pts, n, opts);
      ASSERT_EQ(fp::fire_count(fp::sites::kLuSingular), 1u);
      for (std::size_t p = 0; p < n; ++p)
        if (p != j) {
          ASSERT_TRUE(same_point(hit, p)) << "point " << p << " changed";
        }
      switch (c) {
        case 1:
          EXPECT_TRUE(same_point(hit, j));
          break;
        case 2:
          EXPECT_EQ(hit.point_stage(j), sweep::LadderStage::kPrimary);
          EXPECT_EQ(hit.rom->order[j], 1u);
          break;
        default:
          EXPECT_EQ(hit.point_stage(j), sweep::LadderStage::kShiftedRefit);
          EXPECT_EQ(hit.health.shifted_refits, 1u);
          break;
      }
    }
  }
}

TEST(FailpointsTest, SparseLuSiteForcesSingularResult) {
  FailpointGuard guard;
  linalg::TripletMatrix t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);
  const auto a = t.compress();
  ASSERT_TRUE(linalg::SparseLu::factor(a).has_value());
  fp::arm(fp::sites::kSparseSingular, "once");
  EXPECT_FALSE(linalg::SparseLu::factor(a).has_value());
  EXPECT_TRUE(linalg::SparseLu::factor(a).has_value());
}

TEST(FailpointsTest, ThreadPoolContainsInjectedTaskFaultAndStaysUsable) {
  FailpointGuard guard;
  sweep::ThreadPool pool(4);
  fp::arm(fp::sites::kThreadPoolTask, "once");
  std::vector<int> touched(100, 0);
  EXPECT_THROW(pool.parallel_chunks(100,
                                    [&](std::size_t, std::size_t b, std::size_t e) {
                                      for (std::size_t i = b; i < e; ++i) touched[i] = 1;
                                    }),
               FailError);
  // The pool must drain and stay usable after the injected fault.
  fp::reset();
  std::fill(touched.begin(), touched.end(), 0);
  pool.parallel_chunks(100, [&](std::size_t, std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) touched[i] = 1;
  });
  for (int v : touched) EXPECT_EQ(v, 1);
}

// -- cache corruption matrix ---------------------------------------------

const char* kDeck =
    "vin in 0 1\n"
    "r1 in a 1k\n"
    "c1 a 0 10p\n"
    "r2 a out 2k\n"
    "c2 out 0 5p\n"
    ".symbol r2\n"
    ".symbol c2\n"
    ".input vin\n"
    ".output out\n"
    ".end\n";

std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("failpoints_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Arm `site`, run a store-then-load cycle through the cache, and assert
/// the corruption was quarantined and rebuilt without any exception.
void check_cache_corruption(const std::string& site, bool arm_before_store) {
  FailpointGuard guard;
  const auto deck = circuit::parse_deck_string(kDeck);
  const auto dir = fresh_dir(site.substr(site.rfind('.') + 1));
  core::BuildOptions bo;
  bo.cache_dir = dir.string();
  auto build = [&] {
    return core::CompiledModel::build(deck.netlist, deck.symbol_elements, "vin", "out", {},
                                      bo);
  };
  auto& counters = health::global_counters();

  if (arm_before_store) fp::arm(site, "once");
  EXPECT_FALSE(build().view_backed()) << site;  // cold build, stored
  if (!arm_before_store) fp::arm(site, "once");

  // One on-disk entry exists (possibly damaged).  The next build probing
  // the same key must treat damage as a miss: quarantine the entry to
  // <path>.bad, rebuild cold, store a clean replacement.
  std::string entry;
  for (const auto& f : std::filesystem::directory_iterator(dir))
    if (f.path().extension() == ".awemodel") entry = f.path().string();
  ASSERT_FALSE(entry.empty());
  const auto quarantined = counters.cache_corrupt_quarantined.load();
  const auto rebuilds = counters.cache_rebuilds.load();
  std::optional<core::CompiledModel> model;
  ASSERT_NO_THROW(model.emplace(build()));
  EXPECT_FALSE(model->view_backed()) << site;  // a rebuild, not a hit
  EXPECT_EQ(counters.cache_corrupt_quarantined.load(), quarantined + 1) << site;
  EXPECT_EQ(counters.cache_rebuilds.load(), rebuilds + 1) << site;
  EXPECT_TRUE(std::filesystem::exists(part::quarantine_path(entry)))
      << site;
  EXPECT_TRUE(std::filesystem::exists(entry)) << site;  // rebuilt replacement

  // The replacement is clean: the next build is a plain cache hit.
  fp::reset();
  EXPECT_TRUE(build().view_backed()) << site;
  EXPECT_EQ(counters.cache_corrupt_quarantined.load(), quarantined + 1) << site;
}

TEST(FailpointsTest, CacheStoreCrashIsQuarantinedAndRebuilt) {
  check_cache_corruption(fp::sites::kCacheStoreCrash, /*arm_before_store=*/true);
}

TEST(FailpointsTest, CacheStoreTruncateIsQuarantinedAndRebuilt) {
  check_cache_corruption(fp::sites::kCacheStoreTruncate, /*arm_before_store=*/true);
}

TEST(FailpointsTest, CacheStoreBitflipIsQuarantinedAndRebuilt) {
  check_cache_corruption(fp::sites::kCacheStoreBitflip, /*arm_before_store=*/true);
}

TEST(FailpointsTest, CacheLoadCorruptIsQuarantinedAndRebuilt) {
  check_cache_corruption(fp::sites::kCacheLoadCorrupt, /*arm_before_store=*/false);
}

TEST(FailpointsTest, LoadFileReportsQuarantineThroughOutParam) {
  FailpointGuard guard;
  const auto deck = circuit::parse_deck_string(kDeck);
  const auto dir = fresh_dir("load_file");
  const auto model = core::CompiledModel::build(deck.netlist, deck.symbol_elements,
                                                "vin", "out");
  core::ModelCache::store_file(dir.string(), "deadbeef", model);
  const auto path = core::ModelCache::entry_path(dir.string(), "deadbeef");

  bool quarantined = true;
  auto loaded = core::ModelCache::load_file(path, &quarantined);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_FALSE(quarantined);

  fp::arm(fp::sites::kCacheLoadCorrupt, "once");
  loaded = core::ModelCache::load_file(path, &quarantined);
  EXPECT_FALSE(loaded.has_value());
  EXPECT_TRUE(quarantined);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(part::quarantine_path(path)));
}

// -- global counters -----------------------------------------------------

TEST(FailpointsTest, FiresAreCountedInGlobalCounters) {
  FailpointGuard guard;
  const auto before = health::global_counters().failpoint_fires.load();
  fp::arm(fp::sites::kLuSingular, "always");
  (void)fp::fires(fp::sites::kLuSingular);
  (void)fp::fires(fp::sites::kLuSingular);
  EXPECT_GE(health::global_counters().failpoint_fires.load(), before + 2);
  health::HealthReport report;
  health::absorb_global_counters(report);
  EXPECT_GE(report.failpoint_fires, before + 2);
}

}  // namespace
}  // namespace awe
