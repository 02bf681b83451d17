// Ablation C: what compilation buys over direct symbolic evaluation.
//
// The paper's "compiled set of operations" claim: evaluating the symbolic
// forms must be a short straight-line program, not a term-by-term walk of
// the polynomial expressions.  This bench compares three evaluation paths
// for the same symbolic moments:
//   1. compiled register program (CSE + Horner + register recycling),
//      through moments_batch with a reused workspace, one point per call
//      (count 1) and 64-point lane blocks (the sweep engine's width),
//   2. uncompiled term-by-term polynomial evaluation,
//   3. full AWE re-analysis (no symbolic preprocessing at all),
// across models with growing symbol counts.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "awe/awe.hpp"
#include "bench_util.hpp"
#include "circuits/ladders.hpp"
#include "circuits/opamp741.hpp"
#include "core/awesymbolic.hpp"

namespace {

using namespace awe;

struct Setup {
  circuit::Netlist netlist;
  circuit::NodeId out;
  std::vector<std::string> symbols;
  std::vector<double> nominal;
};

Setup ladder_setup(std::size_t nsymbols) {
  circuits::LadderValues v;
  v.segments = 64;
  auto lad = circuits::make_rc_ladder(v);
  const std::vector<std::string> pool{"r5", "c10", "r20", "c30", "r40", "c50"};
  Setup s;
  s.out = lad.out;
  s.symbols.assign(pool.begin(), pool.begin() + nsymbols);
  for (const auto& name : s.symbols)
    s.nominal.push_back(lad.netlist.elements()[*lad.netlist.find_element(name)].value);
  s.netlist = std::move(lad.netlist);
  return s;
}

/// Compiled moments at `count` points per call: moments_batch over one
/// reused workspace and a lane block of points near `nominal` (lane stride
/// `count`).
class CompiledCalls {
 public:
  CompiledCalls(const core::CompiledModel& model, const std::vector<double>& nominal,
                std::size_t count)
      : model_(model),
        count_(count),
        ws_(model.make_batch_workspace(count)),
        values_(nominal.size() * count),
        moments_(model.moment_count() * count),
        ok_(count) {
    for (std::size_t i = 0; i < nominal.size(); ++i)
      for (std::size_t p = 0; p < count; ++p)
        values_[i * count + p] = nominal[i] * (1.0 + 1e-7 * static_cast<double>(p));
  }
  std::size_t count() const { return count_; }
  /// One call; returns m_0 of the first point.
  double run() {
    model_.moments_batch(values_, count_, count_, ws_, moments_, count_, ok_);
    return moments_[0];
  }

 private:
  const core::CompiledModel& model_;
  std::size_t count_;
  core::BatchWorkspace ws_;
  std::vector<double> values_, moments_;
  std::vector<unsigned char> ok_;
};

/// Seconds per point of `points` compiled evaluations in calls of `count`.
double compiled_seconds_per_point(const core::CompiledModel& model,
                                  const std::vector<double>& nominal, std::size_t count,
                                  std::size_t points, int reps) {
  CompiledCalls calls(model, nominal, count);
  return benchutil::time_median(reps, [&] {
           double acc = 0.0;
           for (std::size_t c = 0; c < points / count; ++c) acc += calls.run();
           benchmark::DoNotOptimize(acc);
         }) /
         static_cast<double>(points);
}

void print_tables() {
  using benchutil::time_median;
  std::printf("== Ablation C: compiled program vs term-by-term evaluation ==\n\n");
  std::printf("%-9s %7s %13s %13s %14s %14s %9s %9s\n", "#symbols", "instrs",
              "compiled/pt", "compiled/pt", "uncompiled/pt", "full AWE/pt", "speedup",
              "speedup");
  std::printf("%-9s %7s %13s %13s %14s %14s %9s %9s\n", "", "", "(count 1)",
              "(width 64)", "", "", "(count 1)", "(width 64)");
  for (std::size_t k = 1; k <= 5; ++k) {
    auto s = ladder_setup(k);
    const auto model = core::CompiledModel::build(
        s.netlist, s.symbols, circuits::LadderCircuit::kInput, s.out, {.order = 2});
    auto vals = s.nominal;

    const double t_one = compiled_seconds_per_point(model, s.nominal, 1, 2048, 3);
    const double t_wide = compiled_seconds_per_point(model, s.nominal, 64, 4096, 3);

    const double t_unc = time_median(3, [&] {
      double acc = 0.0;
      for (int i = 0; i < 64; ++i) {
        vals[0] *= 1.0000001;
        acc += model.moments_uncompiled(vals)[0];
      }
      benchmark::DoNotOptimize(acc);
    }) / 64.0;

    const double t_awe = time_median(3, [&] {
      for (std::size_t j = 0; j < s.symbols.size(); ++j)
        s.netlist.set_value(s.symbols[j], vals[j]);
      const auto rom = engine::run_awe(s.netlist, circuits::LadderCircuit::kInput,
                                       s.out, {.order = 2});
      benchmark::DoNotOptimize(rom.dc_gain());
    });

    std::printf("%-9zu %7zu %10.3f us %10.3f us %11.3f us %11.3f us %8.1fx %8.1fx\n", k,
                model.instruction_count(), t_one * 1e6, t_wide * 1e6, t_unc * 1e6,
                t_awe * 1e6, t_unc / t_one, t_unc / t_wide);
  }

  // The 741 headline numbers (paper: 0.37 us per symbolic evaluation).
  auto amp = circuits::make_opamp741();
  const std::vector<std::string> symbols{circuits::Opamp741Circuit::kSymbolGout,
                                         circuits::Opamp741Circuit::kSymbolCcomp};
  const auto model = core::CompiledModel::build(
      amp.netlist, symbols, circuits::Opamp741Circuit::kInput, amp.out, {.order = 2});
  const circuits::Opamp741Values nom;
  const std::vector<double> vals{nom.gout_q14, nom.c_comp};
  const double t_one = compiled_seconds_per_point(model, vals, 1, 4096, 5);
  const double t_wide = compiled_seconds_per_point(model, vals, 64, 4096, 5);
  std::printf("\n741 compiled moment evaluation: %.3f us/point at count 1, %.3f us/point "
              "at width 64\n(paper: 0.37 us on a DECstation 5000)\n\n",
              t_one * 1e6, t_wide * 1e6);
}

/// Per call of `width` points; items_per_second is points per second.
void BM_CompiledMoments(benchmark::State& state) {
  auto s = ladder_setup(static_cast<std::size_t>(state.range(0)));
  const auto model = core::CompiledModel::build(
      s.netlist, s.symbols, circuits::LadderCircuit::kInput, s.out, {.order = 2});
  CompiledCalls calls(model, s.nominal, static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) benchmark::DoNotOptimize(calls.run());
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_CompiledMoments)
    ->ArgNames({"symbols", "width"})
    ->ArgsProduct({benchmark::CreateDenseRange(1, 5, 1), {1, 64}});

void BM_UncompiledMoments(benchmark::State& state) {
  auto s = ladder_setup(static_cast<std::size_t>(state.range(0)));
  const auto model = core::CompiledModel::build(
      s.netlist, s.symbols, circuits::LadderCircuit::kInput, s.out, {.order = 2});
  auto vals = s.nominal;
  for (auto _ : state) {
    vals[0] *= 1.0000001;
    benchmark::DoNotOptimize(model.moments_uncompiled(vals)[0]);
  }
}
BENCHMARK(BM_UncompiledMoments)->DenseRange(1, 5)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
