// Sweep-engine scaling: points/sec of the parallel batched sweep vs the
// scalar per-point loop on a Monte-Carlo-sized point set (the paper's
// repeated-evaluation workload at statistical-analysis scale).
//
// Methodology (documented in DESIGN.md "Batch and parallel evaluation"):
// the baseline is the best the PRE-ENGINE code could do — a single-thread
// allocation-free loop that runs the register program one point at a time
// (ScalarYardstick below; the library itself runs every point as a lane
// block).  The engine rows then isolate two effects: batch
// width (SoA interpreter, 1 thread) and thread count (static-chunked pool
// at the best width).
//
// Perf-CI contract: every registered google-benchmark case exports a
// `norm_ops_per_s` counter = points/sec x instruction count.
// That is the work rate in *model operations*, normalized so the number is
// comparable across PRs even when the compiled program's length changes;
// bench/check_bench_gate.py gates it against BENCH_baseline.json.
#include <benchmark/benchmark.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include "awe/rom.hpp"
#include "bench_util.hpp"
#include "circuits/coupled_lines.hpp"
#include "circuits/opamp741.hpp"
#include "core/awesymbolic.hpp"
#include "core/model_blob.hpp"
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

/// A yardstick, not an evaluation path: a serial per-point register loop
/// with no lanes, over the model's v5 instruction stream, with the
/// library's symbol transform and moment division.  BM_ScalarLoop times it
/// to anchor `check_bench_gate.py --gate norm_ops_per_s:BM_ScalarLoop`: a
/// count-1 lane block runs 1.15-1.4x slower, and an anchor that much slower
/// would loosen every anchored gate by that factor.  main() aborts unless
/// its moments equal moments_batch() bit for bit.
class ScalarYardstick {
 public:
  explicit ScalarYardstick(const core::CompiledModel& model)
      : blob_(core::make_heap_blob(model.pack())) {
    const core::ModelView view = core::ModelView::open(blob_->bytes());
    code_ = view.program_code();
    for (const core::v5::SymbolEntry& s : view.symbols()) reciprocal_.push_back(s.reciprocal);
    inputs_.resize(code_.input_count);
    regs_.resize(code_.register_count);
    outputs_.resize(code_.outputs.size());
    moments_.resize(outputs_.size() - 1);
  }

  /// Moments m_0..m_{2q-1} at one point; valid until the next call.  Out
  /// of line, like the library call it stands in for.
  [[gnu::noinline]] const std::vector<double>& moments(std::span<const double> vals) {
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      if (reciprocal_[i] && vals[i] == 0.0) throw std::domain_error("zero resistance");
      inputs_[i] = reciprocal_[i] ? 1.0 / vals[i] : vals[i];
    }
    double* const r = regs_.data();
    for (const symbolic::Instr& ins : code_.instrs) {
      switch (ins.op) {
        case symbolic::OpCode::kConst: r[ins.dst] = code_.constants[ins.a]; break;
        case symbolic::OpCode::kInput: r[ins.dst] = inputs_[ins.a]; break;
        case symbolic::OpCode::kAdd: r[ins.dst] = r[ins.a] + r[ins.b]; break;
        case symbolic::OpCode::kSub: r[ins.dst] = r[ins.a] - r[ins.b]; break;
        case symbolic::OpCode::kMul: r[ins.dst] = r[ins.a] * r[ins.b]; break;
        case symbolic::OpCode::kDiv: r[ins.dst] = r[ins.a] / r[ins.b]; break;
        case symbolic::OpCode::kNeg: r[ins.dst] = -r[ins.a]; break;
      }
    }
    for (std::size_t k = 0; k < outputs_.size(); ++k) outputs_[k] = r[code_.outputs[k]];
    const double d = outputs_.back();
    if (d == 0.0) throw std::domain_error("det(Y0) vanishes");
    double dp = d;
    for (std::size_t k = 0; k < moments_.size(); ++k) {
      moments_[k] = outputs_[k] / dp;
      dp *= d;
    }
    return moments_;
  }

 private:
  std::shared_ptr<const core::ModelBlob> blob_;  // code_ points into it
  symbolic::ProgramCode code_;
  std::vector<unsigned char> reciprocal_;
  std::vector<double> inputs_, regs_, outputs_, moments_;
};

/// Abort unless the yardstick's moments equal moments_batch() bit for bit
/// on the 4096 Monte Carlo points BM_ScalarLoop runs.
void check_yardstick() {
  const auto& model = opamp_model();
  constexpr std::size_t n = 4096;
  const auto pts = mc_points(n);
  const std::size_t nm = model.moment_count();
  auto ws = model.make_batch_workspace(n);
  std::vector<double> batch(nm * n);
  std::vector<unsigned char> ok(n);
  model.moments_batch(pts, n, n, ws, batch, n, ok);
  ScalarYardstick scalar(model);
  for (std::size_t p = 0; p < n; ++p) {
    const auto& m = scalar.moments(std::vector<double>{pts[p], pts[n + p]});
    for (std::size_t k = 0; k < nm; ++k)
      if (!ok[p] || std::bit_cast<std::uint64_t>(m[k]) !=
                        std::bit_cast<std::uint64_t>(batch[k * n + p])) {
        std::fprintf(stderr, "ScalarYardstick: point %zu moment %zu differs from "
                             "moments_batch\n", p, k);
        std::abort();
      }
  }
}

/// Scalar baseline: serial allocation-free per-point loop.
double scalar_loop_seconds(const core::CompiledModel& model,
                           const std::vector<double>& pts, std::size_t n) {
  ScalarYardstick scalar(model);
  return benchutil::time_median(3, [&] {
    std::vector<double> vals(2);
    double acc = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      vals[0] = pts[p];
      vals[1] = pts[n + p];
      acc += scalar.moments(vals)[0];
    }
    benchmark::DoNotOptimize(acc);
  });
}

double sweep_seconds(const core::CompiledModel& model, const std::vector<double>& pts,
                     std::size_t n, std::size_t threads, std::size_t width) {
  sweep::SweepOptions opts;
  opts.threads = threads;
  opts.batch_width = width;
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
      "   (%zu instructions, %zu registers per point; hardware threads: %u)\n\n",
      model.instruction_count(), model.register_count(),
      std::thread::hardware_concurrency());

  const double t_scalar = scalar_loop_seconds(model, pts, kPoints);
  benchutil::print_time("scalar per-point loop (baseline)", t_scalar);
  std::printf("%-44s %10.0f pts/s\n\n", "baseline throughput", n / t_scalar);

  std::printf("batch width sweep, 1 thread:\n");
  for (const std::size_t width : {std::size_t{1}, std::size_t{8}, std::size_t{64},
                                  std::size_t{256}}) {
    const double t = sweep_seconds(model, pts, kPoints, 1, width);
    std::printf("  width %4zu  %10.0f pts/s  %6.2fx vs scalar\n", width, n / t,
                t_scalar / t);
  }
  std::printf("\n");

  std::printf("thread scaling at batch width 64:\n");
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    const double t = sweep_seconds(model, pts, kPoints, threads, 64);
    std::printf("  threads %2zu  %10.0f pts/s  %6.2fx vs scalar\n", threads, n / t,
                t_scalar / t);
  }
  std::printf("\n");
}

/// Instruction-count-normalized work-rate counter shared by every case:
/// points/sec x instruction count = compiled model operations/sec.
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
  const auto pts = mc_points(4096);
  ScalarYardstick scalar(opamp_model());
  std::vector<double> vals(2);
  std::size_t p = 0;
  for (auto _ : state) {
    vals[0] = pts[p];
    vals[1] = pts[4096 + p];
    benchmark::DoNotOptimize(scalar.moments(vals)[0]);
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
    ->ArgNames({"threads", "width"})
    ->Args({1, 64})
    ->Args({2, 64})
    ->Args({4, 64})
    ->Args({4, 8})
    ->Args({4, 256})
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
  // normalized work rate uses the GRADIENT stream's instruction
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
    ->ArgNames({"threads", "width"})
    ->Args({4, 64})
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
  check_yardstick();
  if (show_table) print_scaling_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
