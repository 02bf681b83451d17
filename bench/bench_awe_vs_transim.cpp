// The paper's inherited claim (via Pillage & Rohrer): "AWE has also been
// benchmarked to be at least an order of magnitude faster than SPICE for
// this class of problem."  This harness times a full AWE analysis against
// the trapezoidal transient baseline at matched waveform accuracy on RC
// interconnect, and reports the accuracy actually achieved.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "awe/awe.hpp"
#include "bench_util.hpp"
#include "circuits/coupled_lines.hpp"
#include "circuits/ladders.hpp"
#include "transim/transim.hpp"

namespace {

using namespace awe;

struct Workload {
  const char* name;
  circuit::Netlist netlist;
  circuit::NodeId out;
  const char* input;
  double t_stop;
  double dt;
};

std::vector<Workload> workloads() {
  std::vector<Workload> w;
  {
    circuits::LadderValues v;
    v.segments = 200;
    auto lad = circuits::make_rc_ladder(v);
    // Elmore delay ~ 200^2/2 * 100ohm*1pF/segment ~ 2us; simulate 4 taus.
    w.push_back({"rc-ladder-200", std::move(lad.netlist), lad.out,
                 circuits::LadderCircuit::kInput, 10e-6, 2e-9});
  }
  {
    circuits::CoupledLineValues v;
    v.segments = 200;
    auto c = circuits::make_coupled_lines(v);
    w.push_back({"coupled-lines-200 (victim)", std::move(c.netlist), c.line2_out,
                 circuits::CoupledLinesCircuit::kInput, 100e-9, 0.1e-9});
  }
  return w;
}

void print_comparison() {
  using benchutil::time_median;
  std::printf("== AWE vs traditional transient simulation (step response) ==\n\n");
  for (auto& w : workloads()) {
    const double t_awe = time_median(3, [&] {
      const auto rom = engine::run_awe(w.netlist, w.input, w.out, {.order = 3});
      benchmark::DoNotOptimize(rom.step_response(w.t_stop));
    });
    transim::TransientSimulator sim(w.netlist);
    sim.set_waveform(w.input, transim::step(1.0));
    transim::TransientOptions topts;
    topts.t_stop = w.t_stop;
    topts.dt = w.dt;
    transim::TransientResult res;
    const double t_sim = time_median(1, [&] { res = sim.run(topts); });

    // Waveform agreement between the two methods.
    const auto rom = engine::run_awe(w.netlist, w.input, w.out, {.order = 3});
    const auto vt = res.node_voltage(sim.layout(), w.out);
    double max_err = 0.0;
    for (std::size_t k = 0; k < vt.size(); k += 16)
      max_err = std::max(max_err, std::abs(vt[k] - rom.step_response(res.time[k])));

    std::printf("%s:\n", w.name);
    benchutil::print_time("  AWE (order 3, incl. factorization)", t_awe);
    benchutil::print_time("  transient (trapezoidal)", t_sim);
    std::printf("  speedup %.0fx, max |waveform error| %.4f (unit step)\n\n",
                t_sim / t_awe, max_err);
  }
}

void BM_Awe_Ladder(benchmark::State& state) {
  circuits::LadderValues v;
  v.segments = static_cast<std::size_t>(state.range(0));
  auto lad = circuits::make_rc_ladder(v);
  for (auto _ : state) {
    const auto rom =
        engine::run_awe(lad.netlist, circuits::LadderCircuit::kInput, lad.out, {.order = 3});
    benchmark::DoNotOptimize(rom.dc_gain());
  }
}
BENCHMARK(BM_Awe_Ladder)->Arg(50)->Arg(200)->Arg(800)->Unit(benchmark::kMillisecond);

void BM_SparseLuMoments_Ladder(benchmark::State& state) {
  circuits::LadderValues v;
  v.segments = static_cast<std::size_t>(state.range(0));
  auto lad = circuits::make_rc_ladder(v);
  for (auto _ : state) {
    engine::MomentGenerator gen(lad.netlist);
    const auto m = gen.transfer_moments(circuits::LadderCircuit::kInput, lad.out, 6);
    benchmark::DoNotOptimize(m[1]);
  }
}
BENCHMARK(BM_SparseLuMoments_Ladder)
    ->Arg(50)
    ->Arg(200)
    ->Arg(800)
    ->Unit(benchmark::kMicrosecond);

void BM_Transim_Ladder(benchmark::State& state) {
  circuits::LadderValues v;
  v.segments = static_cast<std::size_t>(state.range(0));
  auto lad = circuits::make_rc_ladder(v);
  transim::TransientSimulator sim(lad.netlist);
  sim.set_waveform(circuits::LadderCircuit::kInput, transim::step(1.0));
  transim::TransientOptions topts;
  const double n = static_cast<double>(v.segments);
  topts.t_stop = 4.0 * 0.5 * n * n * 100.0 * 1e-12;  // ~4 Elmore delays
  topts.dt = topts.t_stop / 4096.0;
  for (auto _ : state) {
    const auto res = sim.run(topts);
    benchmark::DoNotOptimize(res.samples.back()[0]);
  }
}
BENCHMARK(BM_Transim_Ladder)->Arg(50)->Arg(200)->Arg(800)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_comparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
