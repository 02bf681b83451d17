// Table 1 of the paper: run time to generate N datapoints of the 741's
// system function at N different symbol values —
//
//   Datapoints      AWE       AWEsymbolic        (DECstation 5000, paper)
//   10              0.079s    2.27s
//   100             5.35s(*)  2.29s               (*) paper row reads 0.53s-
//   1000            53.2s     2.43s                   class scaling; incremental
//                                                     53.2ms vs 0.16ms => ~330x
//
// The claim to reproduce is the *shape*: AWEsymbolic pays a larger setup
// (the symbolic analysis) but its incremental cost per datapoint is
// orders of magnitude below a full AWE re-analysis, so it wins from some
// crossover count onward.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <random>
#include <span>
#include <vector>

#include "awe/awe.hpp"
#include "awe/moments.hpp"
#include "bench_util.hpp"
#include "circuits/opamp741.hpp"
#include "core/awesymbolic.hpp"

namespace {

using namespace awe;

const std::vector<std::string> kSymbols{circuits::Opamp741Circuit::kSymbolGout,
                                        circuits::Opamp741Circuit::kSymbolCcomp};

std::vector<std::array<double, 2>> symbol_grid(std::size_t n) {
  std::vector<std::array<double, 2>> pts;
  pts.reserve(n);
  const circuits::Opamp741Values nominal;
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> f(0.5, 2.0);
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({nominal.gout_q14 * f(rng), nominal.c_comp * f(rng)});
  return pts;
}

/// One full AWE datapoint: restamp, factor, 4 moments, Padé, poles.
double full_awe_datapoint(circuit::Netlist& nl, circuit::NodeId out,
                          const std::array<double, 2>& vals) {
  nl.set_value(kSymbols[0], vals[0]);
  nl.set_value(kSymbols[1], vals[1]);
  const auto rom = engine::run_awe(nl, circuits::Opamp741Circuit::kInput, out,
                                   {.order = 2});
  return rom.dc_gain();
}

void BM_FullAwe_PerDatapoint(benchmark::State& state) {
  auto amp = circuits::make_opamp741();
  const auto grid = symbol_grid(64);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        full_awe_datapoint(amp.netlist, amp.out, grid[i++ % grid.size()]));
  }
}
BENCHMARK(BM_FullAwe_PerDatapoint)->Unit(benchmark::kMillisecond);

void BM_AweSymbolic_PerDatapoint(benchmark::State& state) {
  auto amp = circuits::make_opamp741();
  const auto model = core::CompiledModel::build(
      amp.netlist, kSymbols, circuits::Opamp741Circuit::kInput, amp.out, {.order = 2});
  const auto grid = symbol_grid(64);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& v = grid[i++ % grid.size()];
    const auto rom = model.evaluate(std::vector<double>{v[0], v[1]});
    benchmark::DoNotOptimize(rom.dc_gain());
  }
}
BENCHMARK(BM_AweSymbolic_PerDatapoint)->Unit(benchmark::kMicrosecond);

void BM_AweSymbolic_MomentsOnly(benchmark::State& state) {
  // The pure compiled-program evaluation (paper: 0.37 us per evaluation of
  // the symbolic forms): moments_batch over a reused workspace, `width`
  // grid points per call (1: one point per call; 64: the sweep engine's
  // lane block).  items_per_second is points per second.
  auto amp = circuits::make_opamp741();
  const auto model = core::CompiledModel::build(
      amp.netlist, kSymbols, circuits::Opamp741Circuit::kInput, amp.out, {.order = 2});
  const auto width = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 64;
  const auto grid = symbol_grid(n);
  std::vector<double> values(2 * n);  // SoA: symbol i of point p at [i*n + p]
  for (std::size_t p = 0; p < n; ++p) {
    values[p] = grid[p][0];
    values[n + p] = grid[p][1];
  }
  auto ws = model.make_batch_workspace(width);
  std::vector<double> moments(model.moment_count() * width);
  std::vector<unsigned char> ok(width);
  std::size_t b = 0;
  for (auto _ : state) {
    model.moments_batch(std::span<const double>(values).subspan(b), n, width, ws, moments,
                        width, ok);
    benchmark::DoNotOptimize(moments[0]);
    b = (b + width) % n;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AweSymbolic_MomentsOnly)->ArgName("width")->Arg(1)->Arg(64);

void BM_AweSymbolic_Setup(benchmark::State& state) {
  auto amp = circuits::make_opamp741();
  for (auto _ : state) {
    const auto model = core::CompiledModel::build(
        amp.netlist, kSymbols, circuits::Opamp741Circuit::kInput, amp.out, {.order = 2});
    benchmark::DoNotOptimize(model.instruction_count());
  }
}
BENCHMARK(BM_AweSymbolic_Setup)->Unit(benchmark::kMillisecond);

void print_table1() {
  using benchutil::time_median;
  auto amp = circuits::make_opamp741();
  const auto grid = symbol_grid(1000);

  const double t_setup = time_median(3, [&] {
    const auto m = core::CompiledModel::build(
        amp.netlist, kSymbols, circuits::Opamp741Circuit::kInput, amp.out, {.order = 2});
    benchmark::DoNotOptimize(m.port_count());
  });
  const auto model = core::CompiledModel::build(
      amp.netlist, kSymbols, circuits::Opamp741Circuit::kInput, amp.out, {.order = 2});

  const double t_awe = time_median(5, [&] {
    benchmark::DoNotOptimize(full_awe_datapoint(amp.netlist, amp.out, grid[0]));
  });
  const double t_inc = time_median(5, [&] {
    double acc = 0;
    for (std::size_t i = 0; i < 1000; ++i) {
      const auto rom = model.evaluate(std::vector<double>{grid[i][0], grid[i][1]});
      acc += rom.dc_gain();
    }
    benchmark::DoNotOptimize(acc);
  }) / 1000.0;

  std::printf("== Table 1: time to generate N datapoints (741, 2 symbols, order 2) ==\n\n");
  benchutil::print_time("AWEsymbolic setup (symbolic + compile)", t_setup);
  benchutil::print_time("full AWE cost per datapoint", t_awe);
  benchutil::print_time("AWEsymbolic incremental cost per datapoint", t_inc);
  std::printf("incremental speedup: %.0fx  (paper: ~330x on a DECstation 5000)\n\n",
              t_awe / t_inc);
  std::printf("%-12s %14s %14s\n", "Datapoints", "AWE", "AWEsymbolic");
  for (const std::size_t n : {10u, 100u, 1000u, 10000u}) {
    std::printf("%-12zu %12.4f s %12.4f s\n", static_cast<std::size_t>(n),
                t_awe * static_cast<double>(n),
                t_setup + t_inc * static_cast<double>(n));
  }
  const double crossover = t_setup / (t_awe - t_inc);
  std::printf("\ncrossover: AWEsymbolic wins beyond ~%.0f datapoints\n", crossover);
  std::printf("paper reference (DECstation 5000): 10 -> 0.079s vs 2.27s, "
              "1000 -> 53.2s vs 2.43s\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  print_table1();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
