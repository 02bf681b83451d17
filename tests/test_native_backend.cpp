// Native AOT codegen backend (DESIGN.md §12): interpreter parity.
//
// What must hold, and what these tests pin down, on the paper's golden
// circuits (Figure 1 RC, the 741-class amplifier, the coupled-line pair):
//   - EvalBackend::kNative with EvalMode::kStrict is BIT-IDENTICAL to the
//     strict interpreter on every lane (the strict kernel's TU is compiled
//     with FP contraction off, so it executes the interpreter's exact IEEE
//     double sequence);
//   - kNative with kFast stays within the fused interpreter's ULP bound of
//     strict (same contraction license, so only rounding-order drift);
//   - lane rejection (det(Y0) == 0, zero resistance symbol) is decided
//     identically on both backends;
//   - the sweep engine produces bit-identical SweepResults through either
//     backend in strict mode, including the ROM samples;
//   - the .so artifact is content-addressed next to the model cache entry
//     and is only ever emitted when a caller opts into kNative.
// Every test degrades to GTEST_SKIP when the machine has no C compiler —
// the fallback behavior itself is covered by test_native_fallback.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "circuits/coupled_lines.hpp"
#include "circuits/fig1_rc.hpp"
#include "circuits/opamp741.hpp"
#include "core/awesymbolic.hpp"
#include "core/model_cache.hpp"
#include "core/native_backend.hpp"
#include "engine/sweep.hpp"

namespace awe {
namespace {

using core::CompiledModel;
using core::EvalBackend;
using core::EvalMode;

bool have_compiler() { return !core::native::find_compiler().empty(); }

/// Unique per-test module directory, removed on destruction.
struct TempDir {
  std::filesystem::path path;
  TempDir() {
    static int counter = 0;
    path = std::filesystem::temp_directory_path() /
           ("awe_native_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

/// Deterministic SoA point block spreading each symbol geometrically
/// around its nominal value (0.5x .. 2x).
std::vector<double> spread_points(const std::vector<double>& nominal, std::size_t n) {
  std::vector<double> pts(nominal.size() * n);
  for (std::size_t i = 0; i < nominal.size(); ++i)
    for (std::size_t p = 0; p < n; ++p) {
      const double t = n > 1 ? static_cast<double>(p) / static_cast<double>(n - 1) : 0.5;
      pts[i * n + p] = nominal[i] * std::pow(2.0, 2.0 * t - 1.0);
    }
  return pts;
}

struct BatchRun {
  std::vector<double> moments;
  std::vector<unsigned char> ok;
};

BatchRun run_block(const CompiledModel& model, const std::vector<double>& pts,
                   std::size_t n, EvalMode mode, EvalBackend backend) {
  BatchRun r;
  r.moments.assign(model.moment_count() * n, 0.0);
  r.ok.assign(n, 1);
  auto ws = model.make_batch_workspace(n);
  model.moments_batch(pts, n, n, ws, r.moments, n, r.ok, mode, backend);
  return r;
}

/// Strict native == strict interpreter bit for bit; fast native within the
/// fused ULP envelope of strict; rejected lanes identical everywhere.
void expect_backend_parity(const CompiledModel& model, const std::vector<double>& pts,
                           std::size_t n) {
  const auto is = run_block(model, pts, n, EvalMode::kStrict, EvalBackend::kInterpreter);
  const auto ns = run_block(model, pts, n, EvalMode::kStrict, EvalBackend::kNative);
  const auto nf = run_block(model, pts, n, EvalMode::kFast, EvalBackend::kNative);
  const std::size_t nm = model.moment_count();
  for (std::size_t p = 0; p < n; ++p) {
    ASSERT_EQ(is.ok[p], ns.ok[p]) << "strict lane accept/reject differs at point " << p;
    ASSERT_EQ(is.ok[p], nf.ok[p]) << "fast lane accept/reject differs at point " << p;
    for (std::size_t k = 0; k < nm; ++k) {
      const double a = is.moments[k * n + p];
      const double b = ns.moments[k * n + p];
      if (!is.ok[p]) {
        EXPECT_TRUE(std::isnan(a) && std::isnan(b));
        continue;
      }
      EXPECT_EQ(a, b) << "native strict not bit-identical at moment " << k << ", point "
                      << p;
      const double f = nf.moments[k * n + p];
      EXPECT_NEAR(f, a, 1e-9 * (std::abs(a) + 1e-300))
          << "native fast outside ULP envelope at moment " << k << ", point " << p;
    }
  }
}

TEST(NativeBackendTest, Fig1StrictBitIdenticalFastClose) {
  if (!have_compiler()) GTEST_SKIP() << "no C compiler available";
  auto fig = circuits::make_fig1();
  auto model = CompiledModel::build(fig.netlist, {"g1", "g2", "c1", "c2"},
                                    circuits::Fig1Circuit::kInput, fig.v2, {.order = 2});
  TempDir dir;
  ASSERT_TRUE(model.attach_native(dir.str()).ok());
  ASSERT_TRUE(model.has_native());
  expect_backend_parity(model, spread_points({1.0, 1.0, 1.0, 1.0}, 37), 37);
}

TEST(NativeBackendTest, Opamp741StrictBitIdenticalFastClose) {
  if (!have_compiler()) GTEST_SKIP() << "no C compiler available";
  auto amp = circuits::make_opamp741();
  auto model = CompiledModel::build(
      amp.netlist,
      {circuits::Opamp741Circuit::kSymbolGout, circuits::Opamp741Circuit::kSymbolCcomp},
      circuits::Opamp741Circuit::kInput, amp.out, {.order = 2});
  TempDir dir;
  ASSERT_TRUE(model.attach_native(dir.str()).ok());
  ASSERT_TRUE(model.has_native());
  expect_backend_parity(model, spread_points({1.0 / 75.0, 30e-12}, 19), 19);
}

TEST(NativeBackendTest, CoupledLinesStrictBitIdenticalFastClose) {
  if (!have_compiler()) GTEST_SKIP() << "no C compiler available";
  auto lines = circuits::make_coupled_lines({.segments = 24});
  auto model = CompiledModel::build(lines.netlist,
                                    {circuits::CoupledLinesCircuit::kSymbolRdriver,
                                     circuits::CoupledLinesCircuit::kSymbolCload},
                                    circuits::CoupledLinesCircuit::kInput,
                                    lines.line2_out, {.order = 2});
  TempDir dir;
  ASSERT_TRUE(model.attach_native(dir.str()).ok());
  ASSERT_TRUE(model.has_native());
  expect_backend_parity(model, spread_points({100.0, 1e-12}, 19), 19);
}

TEST(NativeBackendTest, RejectedLanesIdenticalAcrossBackends) {
  if (!have_compiler()) GTEST_SKIP() << "no C compiler available";
  auto fig = circuits::make_fig1();
  auto model = CompiledModel::build(fig.netlist, {"g2", "c2"},
                                    circuits::Fig1Circuit::kInput, fig.v2, {.order = 2});
  TempDir dir;
  ASSERT_TRUE(model.attach_native(dir.str()).ok());
  // Point 1 kills det(Y0) (g2 = 0 opens the only path to the output).
  const std::size_t n = 3;
  const std::vector<double> pts{1.0, 0.0, 2.0,   // g2 lane
                                1.0, 1.0, 0.5};  // c2 lane
  expect_backend_parity(model, pts, n);
  const auto ns = run_block(model, pts, n, EvalMode::kStrict, EvalBackend::kNative);
  EXPECT_EQ(ns.ok[0], 1);
  EXPECT_EQ(ns.ok[1], 0);
  EXPECT_EQ(ns.ok[2], 1);
}

TEST(NativeBackendTest, SweepResultsBitIdenticalAcrossBackends) {
  if (!have_compiler()) GTEST_SKIP() << "no C compiler available";
  auto fig = circuits::make_fig1();
  auto model = CompiledModel::build(fig.netlist, {"g1", "g2", "c1", "c2"},
                                    circuits::Fig1Circuit::kInput, fig.v2, {.order = 2});
  TempDir dir;
  ASSERT_TRUE(model.attach_native(dir.str()).ok());

  const std::vector<sweep::Distribution> dists{
      sweep::Distribution::lognormal(1.0, 0.3), sweep::Distribution::lognormal(1.0, 0.3),
      sweep::Distribution::lognormal(1.0, 0.3), sweep::Distribution::lognormal(1.0, 0.3)};
  sweep::SweepOptions interp, native;
  interp.threads = 2;
  interp.batch_width = 16;
  interp.with_rom = true;
  native = interp;
  native.backend = EvalBackend::kNative;

  const auto a = sweep::monte_carlo(model, dists, 300, 42, interp);
  const auto b = sweep::monte_carlo(model, dists, 300, 42, native);
  // memcmp: bit-identity that also holds over NaN-padded slots.
  const auto bits_equal = [](const auto& x, const auto& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(x[0])) == 0;
  };
  EXPECT_TRUE(bits_equal(a.moments, b.moments)) << "strict sweep not bit-identical";
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.ladder_stage, b.ladder_stage);
  ASSERT_TRUE(a.rom && b.rom);
  EXPECT_TRUE(bits_equal(a.rom->dc_gain, b.rom->dc_gain));
  EXPECT_EQ(a.rom->order, b.rom->order);
  EXPECT_TRUE(bits_equal(a.rom->poles, b.rom->poles));
  EXPECT_TRUE(bits_equal(a.rom->residues, b.rom->residues));
}

TEST(NativeBackendTest, ModuleIsContentAddressedNextToCacheEntry) {
  if (!have_compiler()) GTEST_SKIP() << "no C compiler available";
  auto fig = circuits::make_fig1();
  TempDir dir;
  core::ModelCache cache(dir.str());
  core::BuildOptions interp, native;
  native.backend = EvalBackend::kNative;

  // Interpreter builds must never emit a .so (cache dirs stay comparable).
  (void)cache.get_or_build(fig.netlist, {"g2", "c2"}, circuits::Fig1Circuit::kInput,
                           circuits::Fig1Circuit::kOutput, {.order = 2}, interp);
  std::size_t so_count = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir.path))
    so_count += e.path().extension() == ".so";
  EXPECT_EQ(so_count, 0u);

  // A kNative build drops exactly one content-addressed module beside it.
  core::ModelCache cache2(dir.str());
  auto model = cache2.get_or_build(fig.netlist, {"g2", "c2"},
                                   circuits::Fig1Circuit::kInput,
                                   circuits::Fig1Circuit::kOutput, {.order = 2}, native);
  EXPECT_TRUE(model->has_native());
  std::vector<std::string> so_names;
  for (const auto& e : std::filesystem::directory_iterator(dir.path))
    if (e.path().extension() == ".so") so_names.push_back(e.path().filename().string());
  ASSERT_EQ(so_names.size(), 1u);
  EXPECT_TRUE(so_names[0].rfind("native_", 0) == 0) << so_names[0];

  // Re-attach on a fresh cache instance (disk hit): must reuse the module
  // byte-for-byte — validated load, no rewrite.
  const auto so_path = dir.path / so_names[0];
  const auto mtime = std::filesystem::last_write_time(so_path);
  const auto before = health::global_counters().native_compiled.load();
  auto model2 = core::ModelCache(dir.str()).get_or_build(
      fig.netlist, {"g2", "c2"}, circuits::Fig1Circuit::kInput,
      circuits::Fig1Circuit::kOutput, {.order = 2}, native);
  EXPECT_TRUE(model2->has_native());
  EXPECT_EQ(health::global_counters().native_compiled.load(), before + 1);
  EXPECT_EQ(std::filesystem::last_write_time(so_path), mtime);
}

TEST(NativeBackendTest, ScratchDirAttachWorksWithoutCacheDir) {
  if (!have_compiler()) GTEST_SKIP() << "no C compiler available";
  auto fig = circuits::make_fig1();
  auto model = CompiledModel::build(fig.netlist, {"g2", "c2"},
                                    circuits::Fig1Circuit::kInput, fig.v2, {.order = 2});
  ASSERT_TRUE(model.attach_native("").ok());
  EXPECT_TRUE(model.has_native());
  expect_backend_parity(model, spread_points({1.0, 1.0}, 9), 9);
}

}  // namespace
}  // namespace awe
