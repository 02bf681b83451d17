// Sweep-engine scaling: points/sec of the parallel batched sweep vs the
// scalar per-point loop on a Monte-Carlo-sized point set (the paper's
// repeated-evaluation workload at statistical-analysis scale), in both
// interpreter modes — kStrict (unfused, bit-reproducible) and kFast (the
// peephole-fused stream).
//
// Methodology (documented in DESIGN.md "Batch and parallel evaluation"):
// the baseline is the best the PRE-ENGINE code could do — a single-thread
// loop over CompiledModel::moments_at with a reused Workspace, i.e.
// allocation-free but scalar and serial.  The engine rows then isolate
// three effects: batch width (SoA interpreter, 1 thread), thread count
// (static-chunked pool at the best width), and fusion (kFast vs kStrict at
// identical geometry — the fused-vs-unfused series).
//
// Perf-CI contract: every registered google-benchmark case exports a
// `norm_ops_per_s` counter = points/sec x strict-stream instruction count.
// That is the work rate in *model operations*, normalized so the number is
// comparable across PRs even when the compiled program's length changes;
// bench/check_bench_gate.py gates it against BENCH_baseline.json.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string_view>
#include <thread>
#include <vector>

#include "awe/rom.hpp"
#include "bench_util.hpp"
#include "circuits/coupled_lines.hpp"
#include "circuits/opamp741.hpp"
#include "core/awesymbolic.hpp"
#include "engine/sweep.hpp"

namespace {

using namespace awe;

constexpr std::size_t kPoints = 100000;  // >= 1e5-point sweep

core::CompiledModel build_opamp_model(bool with_gradients = false) {
  auto amp = circuits::make_opamp741();
  return core::CompiledModel::build(
      amp.netlist,
      {circuits::Opamp741Circuit::kSymbolGout, circuits::Opamp741Circuit::kSymbolCcomp},
      circuits::Opamp741Circuit::kInput, amp.out,
      {.order = 2, .with_gradients = with_gradients});
}

const core::CompiledModel& opamp_model() {
  static const core::CompiledModel model = build_opamp_model();
  return model;
}

/// The same 741 model compiled with the reverse-mode gradient stream
/// (DESIGN.md §14), for the gradient-sweep overhead rows.
const core::CompiledModel& opamp_gradient_model() {
  static const core::CompiledModel model = build_opamp_model(/*with_gradients=*/true);
  return model;
}

std::vector<double> mc_points(std::size_t n) {
  const circuits::Opamp741Values nominal;
  const std::vector<sweep::Distribution> dists{
      sweep::Distribution::lognormal(nominal.gout_q14, 0.2),
      sweep::Distribution::lognormal(nominal.c_comp, 0.2)};
  return sweep::sample_points(dists, n, 2024);
}

/// Scalar baseline: serial allocation-free per-point loop.
double scalar_loop_seconds(const core::CompiledModel& model,
                           const std::vector<double>& pts, std::size_t n) {
  return benchutil::time_median(3, [&] {
    auto ws = model.make_workspace();
    std::vector<double> vals(2);
    double acc = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      vals[0] = pts[p];
      vals[1] = pts[n + p];
      model.moments_at(vals, ws);
      acc += ws.moments[0];
    }
    benchmark::DoNotOptimize(acc);
  });
}

double sweep_seconds(const core::CompiledModel& model, const std::vector<double>& pts,
                     std::size_t n, std::size_t threads, std::size_t width,
                     core::EvalMode mode) {
  sweep::SweepOptions opts;
  opts.threads = threads;
  opts.batch_width = width;
  opts.mode = mode;
  return benchutil::time_median(3, [&] {
    const auto res = sweep::run_sweep(model, pts, n, opts);
    benchmark::DoNotOptimize(res.moment_stats[0].mean);
  });
}

void print_scaling_table() {
  const auto& model = opamp_model();
  const auto pts = mc_points(kPoints);
  const double n = static_cast<double>(kPoints);

  std::printf("== Sweep scaling: %zu-point Monte Carlo over the 741 model ==\n", kPoints);
  std::printf(
      "   (%zu strict / %zu fused instructions, %zu registers per point; "
      "hardware threads: %u)\n\n",
      model.instruction_count(), model.fused_instruction_count(), model.register_count(),
      std::thread::hardware_concurrency());

  const double t_scalar = scalar_loop_seconds(model, pts, kPoints);
  benchutil::print_time("scalar per-point loop (baseline)", t_scalar);
  std::printf("%-44s %10.0f pts/s\n\n", "baseline throughput", n / t_scalar);

  for (const auto mode : {core::EvalMode::kStrict, core::EvalMode::kFast}) {
    const char* tag = mode == core::EvalMode::kStrict ? "strict (unfused)" : "fast (fused)";
    std::printf("batch width sweep, 1 thread, %s:\n", tag);
    for (const std::size_t width : {std::size_t{1}, std::size_t{8}, std::size_t{64},
                                    std::size_t{256}}) {
      const double t = sweep_seconds(model, pts, kPoints, 1, width, mode);
      std::printf("  width %4zu  %10.0f pts/s  %6.2fx vs scalar\n", width, n / t,
                  t_scalar / t);
    }
    std::printf("\n");
  }

  std::printf("fused-vs-unfused at batch width 64 (the perf-CI headline):\n");
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    const double ts = sweep_seconds(model, pts, kPoints, threads, 64,
                                    core::EvalMode::kStrict);
    const double tf = sweep_seconds(model, pts, kPoints, threads, 64,
                                    core::EvalMode::kFast);
    std::printf(
        "  threads %2zu  strict %10.0f pts/s   fast %10.0f pts/s   fast/strict %5.2fx\n",
        threads, n / ts, n / tf, ts / tf);
  }
  std::printf("\n");
}

/// Instruction-count-normalized work-rate counter shared by every case:
/// points/sec x strict instruction count = compiled model operations/sec.
/// The perf gate compares THIS, not wall time, so a change to the program
/// length (more moments, deeper Horner) rescales the counter rather than
/// masquerading as an interpreter regression.
void set_norm_counter(benchmark::State& state, std::size_t points_per_iter) {
  const double ops = static_cast<double>(state.iterations()) *
                     static_cast<double>(points_per_iter) *
                     static_cast<double>(opamp_model().instruction_count());
  state.counters["norm_ops_per_s"] =
      benchmark::Counter(ops, benchmark::Counter::kIsRate);
  state.counters["pts_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(points_per_iter),
      benchmark::Counter::kIsRate);
}

void BM_ScalarLoop(benchmark::State& state) {
  const auto& model = opamp_model();
  const auto pts = mc_points(4096);
  auto ws = model.make_workspace();
  std::vector<double> vals(2);
  std::size_t p = 0;
  for (auto _ : state) {
    vals[0] = pts[p];
    vals[1] = pts[4096 + p];
    model.moments_at(vals, ws);
    benchmark::DoNotOptimize(ws.moments[0]);
    p = (p + 1) % 4096;
  }
  set_norm_counter(state, 1);
}
BENCHMARK(BM_ScalarLoop);

void BM_SweepEngine(benchmark::State& state) {
  const auto& model = opamp_model();
  const std::size_t n = 4096;
  const auto pts = mc_points(n);
  sweep::SweepOptions opts;
  opts.threads = static_cast<std::size_t>(state.range(0));
  opts.batch_width = static_cast<std::size_t>(state.range(1));
  opts.mode = state.range(2) ? core::EvalMode::kFast : core::EvalMode::kStrict;
  sweep::ThreadPool pool(opts.threads);
  opts.pool = &pool;
  std::uint64_t degraded = 0;
  for (auto _ : state) {
    const auto res = sweep::run_sweep(model, pts, n, opts);
    benchmark::DoNotOptimize(res.ok_count);
    degraded = res.health.points_degraded + res.health.points_quarantined;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  set_norm_counter(state, n);
  // Health gate: on the golden 741 Monte-Carlo deck every point must fit
  // on the primary path — any degradation here is a correctness smell the
  // perf CI fails on (check_bench_gate.py --expect-zero degraded_points).
  state.counters["degraded_points"] =
      benchmark::Counter(static_cast<double>(degraded));
}
BENCHMARK(BM_SweepEngine)
    ->ArgNames({"threads", "width", "fast"})
    ->Args({1, 64, 0})
    ->Args({1, 64, 1})
    ->Args({2, 64, 0})
    ->Args({2, 64, 1})
    ->Args({4, 64, 0})
    ->Args({4, 64, 1})
    ->Args({4, 8, 0})
    ->Args({4, 8, 1})
    ->Args({4, 256, 0})
    ->Args({4, 256, 1})
    ->Unit(benchmark::kMillisecond);

/// Gradient-sweep overhead rows (DESIGN.md §14): the same Monte-Carlo
/// workload with SweepOptions::gradients — one gradient-program run per
/// lane block yields moments AND d(m_k)/d(symbol) for every symbol.  The
/// perf CI gates pts_per_s here against the forward-only row at identical
/// geometry via --dominates with factor 0.4, i.e. the full gradient sweep
/// must cost at most 2.5x a forward-only sweep on this 2-symbol model.
void BM_SweepGradients(benchmark::State& state) {
  const auto& model = opamp_gradient_model();
  const std::size_t n = 4096;
  const auto pts = mc_points(n);
  sweep::SweepOptions opts;
  opts.threads = static_cast<std::size_t>(state.range(0));
  opts.batch_width = static_cast<std::size_t>(state.range(1));
  opts.mode = state.range(2) ? core::EvalMode::kFast : core::EvalMode::kStrict;
  opts.gradients = true;
  sweep::ThreadPool pool(opts.threads);
  opts.pool = &pool;
  for (auto _ : state) {
    const auto res = sweep::run_sweep(model, pts, n, opts);
    benchmark::DoNotOptimize(res.gradients.data());
    benchmark::DoNotOptimize(res.ok_count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  // pts_per_s feeds the dominance gate against the forward row.  The
  // normalized work rate uses the GRADIENT stream's strict instruction
  // count — the row measures the gradient interpreter's op throughput, so
  // a longer adjoint stream must rescale the counter, not look like a
  // regression.
  const double pts_done =
      static_cast<double>(state.iterations()) * static_cast<double>(n);
  state.counters["pts_per_s"] = benchmark::Counter(pts_done, benchmark::Counter::kIsRate);
  state.counters["norm_ops_per_s"] = benchmark::Counter(
      pts_done * static_cast<double>(model.gradient_instruction_count()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SweepGradients)
    ->ArgNames({"threads", "width", "fast"})
    ->Args({4, 64, 0})
    ->Args({4, 64, 1})
    ->Unit(benchmark::kMillisecond);

/// The order-2 ROM fit by itself (DESIGN.md §7): engine::fit_lanes over a
/// recorded moment block, 64 lanes per call as run_sweep does.  Arg 0 is
/// the 741 Monte Carlo block, arg 1 the crosstalk output of a 2 x 200-segment
/// coupled-line pair (m0 == 0 on every lane, some complex pole pairs).
/// Ungated: ns_per_lane is a measurement, not a perf-CI contract
/// (google-benchmark prints the inverted rate with an "s" suffix).
struct MomentBlock {
  std::vector<double> moments;  // moment k of point p at [k*n + p]
  std::vector<unsigned char> ok;
  std::size_t n = 0;
};

MomentBlock record_block(const core::CompiledModel& model, std::vector<double> pts,
                         std::size_t n) {
  sweep::SweepOptions opts;
  opts.threads = 1;
  const auto res = sweep::run_sweep(model, std::move(pts), n, opts);
  return {res.moments, std::vector<unsigned char>(res.ok.begin(), res.ok.end()), n};
}

const MomentBlock& fit_block(std::int64_t which) {
  constexpr std::size_t n = 4096;
  static const MomentBlock amp = record_block(opamp_model(), mc_points(n), n);
  static const MomentBlock xtalk = [] {
    circuits::CoupledLineValues v;
    v.segments = 200;
    const auto lines = circuits::make_coupled_lines(v);
    const auto model = core::CompiledModel::build(
        lines.netlist, {"rdrv1", "rdrv2", "cload1", "cload2"},
        circuits::CoupledLinesCircuit::kInput, lines.line2_out, {.order = 2});
    const std::vector<sweep::Distribution> dists{
        sweep::Distribution::lognormal(v.r_driver, 0.3),
        sweep::Distribution::lognormal(v.r_driver, 0.3),
        sweep::Distribution::lognormal(v.c_load, 0.3),
        sweep::Distribution::lognormal(v.c_load, 0.3)};
    return record_block(model, sweep::sample_points(dists, n, 2024), n);
  }();
  return which == 0 ? amp : xtalk;
}

void BM_FitLanes(benchmark::State& state) {
  const MomentBlock& blk = fit_block(state.range(0));
  constexpr std::size_t kWidth = 64;
  const std::size_t n = blk.n;
  engine::RomSamples rs;
  rs.max_order = 2;
  rs.order.assign(n, 0);
  rs.poles.assign(2 * n, {});
  rs.residues.assign(2 * n, {});
  rs.dc_gain.assign(n, 0.0);
  engine::FitScratch scratch(2);
  std::vector<health::FailClass> fail(kWidth);
  const engine::RomOptions ropts{.order = 2};
  for (auto _ : state) {
    for (std::size_t b = 0; b < n; b += kWidth) {
      const std::size_t w = std::min(kWidth, n - b);
      engine::fit_lanes(std::span<const double>(blk.moments.data() + b, 3 * n + w), n, w,
                        std::span<const unsigned char>(blk.ok.data() + b, w), ropts, scratch,
                        rs, b, fail);
    }
    benchmark::DoNotOptimize(rs.dc_gain.data());
    benchmark::ClobberMemory();
  }
  const double lanes = static_cast<double>(state.iterations()) * static_cast<double>(n);
  state.counters["ns_per_lane"] = benchmark::Counter(
      lanes * 1e-9, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FitLanes)->ArgName("crosstalk")->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  // With --benchmark_format=json the headline table would corrupt the
  // stream, so it is skipped there (the gate uses --benchmark_out=FILE,
  // which keeps stdout free).  AWE_BENCH_TABLE=0 skips it unconditionally.
  bool show_table = true;
  for (int i = 1; i < argc; ++i)
    if (std::string_view(argv[i]) == "--benchmark_format=json") show_table = false;
  if (const char* e = std::getenv("AWE_BENCH_TABLE"); e && std::string_view(e) == "0")
    show_table = false;
  if (show_table) print_scaling_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
