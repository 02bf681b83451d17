// Paper §3.2 run-time comparison on the coupled-line timing model:
//
//   "A single AWE analysis for this circuit requires on average 1.12
//    seconds on a DECStation5000, while the AWEsymbolic analysis requires
//    5.41 seconds ... However, the incremental cost, which is crucial in
//    iterative applications, is 0.11 milliseconds for AWEsymbolic.  This
//    is four orders of magnitude faster than a numeric analysis with AWE."
//
// Shape to reproduce: symbolic setup costs a small multiple of one AWE
// run, but the incremental evaluation is orders of magnitude cheaper.
//
// The build-pipeline series (BM_Build*) measures the setup cost itself
// under the levers this codebase adds on top of the paper: the persistent
// compiled-model cache (warm loads skip partition+symbolic+compile
// entirely) and the incremental per-cell rebuild.  Each reports a
// `builds_per_s` rate counter; the perf gate anchors the series to
// BM_BuildCold so the gated quantity is the warm/cold and edit/cold
// speedup STRUCTURE, not machine speed.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "awe/awe.hpp"
#include "bench_util.hpp"
#include "circuits/coupled_lines.hpp"
#include "core/model_cache.hpp"

namespace {

using namespace awe;

const std::vector<std::string> kSymbols{circuits::CoupledLinesCircuit::kSymbolRdriver,
                                        circuits::CoupledLinesCircuit::kSymbolCload};

/// Fresh empty cache directory (under the system temp root) per call.
std::string fresh_cache_dir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("awe_bench_cache_") + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

void print_comparison() {
  using benchutil::time_median;
  circuits::CoupledLineValues v;  // 1000 segments, as in the paper
  auto c = circuits::make_coupled_lines(v);

  std::printf("== coupled-line timing model: setup vs incremental cost ==\n");
  std::printf("(2 x %zu segments, %zu elements; symbols: driver R, load C)\n\n",
              v.segments, c.netlist.elements().size());

  const double t_awe = time_median(3, [&] {
    const auto rom = engine::run_awe(c.netlist, circuits::CoupledLinesCircuit::kInput,
                                     c.line2_out, {.order = 2});
    benchmark::DoNotOptimize(rom.dc_gain());
  });
  const double t_setup = time_median(3, [&] {
    const auto model = core::CompiledModel::build(
        c.netlist, kSymbols, circuits::CoupledLinesCircuit::kInput, c.line2_out,
        {.order = 2});
    benchmark::DoNotOptimize(model.instruction_count());
  });
  const auto model = core::CompiledModel::build(
      c.netlist, kSymbols, circuits::CoupledLinesCircuit::kInput, c.line2_out,
      {.order = 2});
  const double t_inc = time_median(5, [&] {
    double acc = 0.0;
    for (int i = 0; i < 1000; ++i) {
      const auto rom = model.evaluate(
          std::vector<double>{50.0 + 0.5 * i, 1e-12 * (0.5 + 0.001 * i)});
      acc += rom.step_response(10e-9);
    }
    benchmark::DoNotOptimize(acc);
  }) / 1000.0;

  // Build-pipeline lever: warm-cache loads of the same model.
  const std::string cache_dir = fresh_cache_dir("table");
  core::BuildOptions cached;
  cached.cache_dir = cache_dir;
  (void)core::CompiledModel::build(c.netlist, kSymbols,
                                   circuits::CoupledLinesCircuit::kInput, c.line2_out,
                                   {.order = 2}, cached);  // populate the entry
  const double t_warm = time_median(5, [&] {
    const auto m = core::CompiledModel::build(c.netlist, kSymbols,
                                              circuits::CoupledLinesCircuit::kInput,
                                              c.line2_out, {.order = 2}, cached);
    benchmark::DoNotOptimize(m.instruction_count());
  });
  // Incremental rebuild after a one-element edit (DESIGN.md §13): only
  // the dirty cell re-extracts; every clean cell reloads its cached
  // moment blocks bit-identically.
  core::BuildOptions inc;
  inc.partition_block_dir = fresh_cache_dir("table_blocks");
  (void)core::CompiledModel::build(c.netlist, kSymbols,
                                   circuits::CoupledLinesCircuit::kInput, c.line2_out,
                                   {.order = 2}, inc);  // warm the block store
  const double r0 = c.netlist.elements()[*c.netlist.find_element("r1_500")].value;
  int edit_seq = 0;
  const double t_inc_edit = time_median(5, [&] {
    c.netlist.set_value("r1_500", r0 * (1.0 + 1e-6 * ++edit_seq));
    const auto m = core::CompiledModel::build(c.netlist, kSymbols,
                                              circuits::CoupledLinesCircuit::kInput,
                                              c.line2_out, {.order = 2}, inc);
    benchmark::DoNotOptimize(m.instruction_count());
  });
  c.netlist.set_value("r1_500", r0);
  std::filesystem::remove_all(inc.partition_block_dir);

  std::filesystem::remove_all(cache_dir);

  benchutil::print_time("single full AWE analysis", t_awe);
  benchutil::print_time("AWEsymbolic setup (partition+symbolic+compile)", t_setup);
  benchutil::print_time("AWEsymbolic setup, warm model cache", t_warm);
  benchutil::print_time("one-element edit, incremental rebuild", t_inc_edit);
  benchutil::print_time("AWEsymbolic incremental cost per evaluation", t_inc);
  std::printf("\nsetup ratio   : symbolic/AWE = %.2fx   (paper: 5.41s/1.12s = 4.8x)\n",
              t_setup / t_awe);
  std::printf("incremental   : AWE/symbolic = %.0fx    (paper: ~1e4x)\n", t_awe / t_inc);
  std::printf("warm cache    : cold/warm = %.1fx   (acceptance floor: 10x)\n",
              t_setup / t_warm);
  std::printf("incr. rebuild : cold/edit = %.1fx   (acceptance floor: 10x)\n\n",
              t_setup / t_inc_edit);
}

void BM_FullAwe_CoupledLines(benchmark::State& state) {
  circuits::CoupledLineValues v;
  v.segments = static_cast<std::size_t>(state.range(0));
  auto c = circuits::make_coupled_lines(v);
  for (auto _ : state) {
    const auto rom = engine::run_awe(c.netlist, circuits::CoupledLinesCircuit::kInput,
                                     c.line2_out, {.order = 2});
    benchmark::DoNotOptimize(rom.dc_gain());
  }
}
BENCHMARK(BM_FullAwe_CoupledLines)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_SymbolicSetup_CoupledLines(benchmark::State& state) {
  circuits::CoupledLineValues v;
  v.segments = static_cast<std::size_t>(state.range(0));
  auto c = circuits::make_coupled_lines(v);
  for (auto _ : state) {
    const auto model = core::CompiledModel::build(
        c.netlist, kSymbols, circuits::CoupledLinesCircuit::kInput, c.line2_out,
        {.order = 2});
    benchmark::DoNotOptimize(model.instruction_count());
  }
}
BENCHMARK(BM_SymbolicSetup_CoupledLines)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_SymbolicIncremental_CoupledLines(benchmark::State& state) {
  circuits::CoupledLineValues v;
  v.segments = static_cast<std::size_t>(state.range(0));
  auto c = circuits::make_coupled_lines(v);
  const auto model = core::CompiledModel::build(
      c.netlist, kSymbols, circuits::CoupledLinesCircuit::kInput, c.line2_out,
      {.order = 2});
  int i = 0;
  for (auto _ : state) {
    const auto rom = model.evaluate(
        std::vector<double>{50.0 + 0.5 * (i % 500), 1e-12 * (0.5 + 0.001 * (i % 500))});
    ++i;
    benchmark::DoNotOptimize(rom.step_response(10e-9));
  }
}
BENCHMARK(BM_SymbolicIncremental_CoupledLines)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

// -- build pipeline: cold / warm-cache / incremental ---------------------
//
// All three share one circuit size (1000 segments, the paper's coupled
// lines — the numeric extraction dominates the cold build there) and
// report `builds_per_s`.  BM_BuildCold is the in-run anchor: the perf
// gate divides the others by it, so what is actually gated is the
// warm-cache and incremental speedup over a cold build.

constexpr std::size_t kBuildSegments = 1000;

void BM_BuildCold(benchmark::State& state) {
  circuits::CoupledLineValues v;
  v.segments = kBuildSegments;
  auto c = circuits::make_coupled_lines(v);
  for (auto _ : state) {
    const auto model = core::CompiledModel::build(
        c.netlist, kSymbols, circuits::CoupledLinesCircuit::kInput, c.line2_out,
        {.order = 2});
    benchmark::DoNotOptimize(model.instruction_count());
  }
  state.counters["builds_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BuildCold)->Unit(benchmark::kMillisecond);

void BM_BuildWarmCache(benchmark::State& state) {
  circuits::CoupledLineValues v;
  v.segments = kBuildSegments;
  auto c = circuits::make_coupled_lines(v);
  core::BuildOptions opts;
  opts.cache_dir = fresh_cache_dir("warm");
  (void)core::CompiledModel::build(c.netlist, kSymbols,
                                   circuits::CoupledLinesCircuit::kInput, c.line2_out,
                                   {.order = 2}, opts);  // populate
  for (auto _ : state) {
    const auto model = core::CompiledModel::build(
        c.netlist, kSymbols, circuits::CoupledLinesCircuit::kInput, c.line2_out,
        {.order = 2}, opts);
    benchmark::DoNotOptimize(model.instruction_count());
  }
  state.counters["builds_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
  std::filesystem::remove_all(opts.cache_dir);
}
BENCHMARK(BM_BuildWarmCache)->Unit(benchmark::kMillisecond);

// Incremental partition-level rebuild (DESIGN.md §13): each iteration
// edits ONE element (a fresh value every time, so its cell is genuinely
// dirty) and rebuilds against a warm per-cell block store — the dirty
// cell re-extracts, every clean cell reloads its cached moment blocks.
// Gated against BM_BuildCold: a one-element edit must rebuild >= 10x
// faster than a cold build of the same circuit.
void BM_BuildIncrementalEdit(benchmark::State& state) {
  circuits::CoupledLineValues v;
  v.segments = kBuildSegments;
  auto c = circuits::make_coupled_lines(v);
  core::BuildOptions opts;
  opts.partition_block_dir = fresh_cache_dir("inc_blocks");
  (void)core::CompiledModel::build(c.netlist, kSymbols,
                                   circuits::CoupledLinesCircuit::kInput, c.line2_out,
                                   {.order = 2}, opts);  // warm the block store
  const double r0 = c.netlist.elements()[*c.netlist.find_element("r1_500")].value;
  int i = 0;
  for (auto _ : state) {
    c.netlist.set_value("r1_500", r0 * (1.0 + 1e-6 * ++i));
    const auto model = core::CompiledModel::build(
        c.netlist, kSymbols, circuits::CoupledLinesCircuit::kInput, c.line2_out,
        {.order = 2}, opts);
    benchmark::DoNotOptimize(model.instruction_count());
  }
  state.counters["builds_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
  std::filesystem::remove_all(opts.partition_block_dir);
}
BENCHMARK(BM_BuildIncrementalEdit)->Unit(benchmark::kMillisecond);

// -- model open: stream load vs zero-copy map ----------------------------
//
// The format-v4 acceptance series (DESIGN.md §15): ONE model serialized
// once into a temp directory, then re-opened cold every iteration, either
// through the stream loader (read the whole blob, verify its checksum,
// validate) or through mmap (validate in place).  The gated quantity
// (check_bench_gate.py --dominates) is models_per_s of the map rows over
// BM_ModelOpenStream: the mmap open must beat the full read by >= 10x,
// and by >= 3x EVEN WHEN it also pays for the first width-64 batch
// evaluation — i.e. "open and start sweeping" is O(pages touched), not
// O(model size).
//
// The fixture deliberately carries the sections a moments-only first
// batch never touches — the gradient stream and the serialized symbolic
// closed forms — because that asymmetry IS the
// measured claim: the stream loader reads and checksums all of them,
// while the mmap open bounds-checks their section table entries and never
// faults their pages.  Ten symbols over a 200-segment coupled pair puts
// the blob near half a megabyte, far past the fixed open/validate
// overheads.

struct OpenFixture {
  std::string dir;
  std::string path;
  std::vector<double> nominals;  // per-symbol, in model symbol order

  OpenFixture() {
    circuits::CoupledLineValues v;
    v.segments = 200;
    auto c = circuits::make_coupled_lines(v);
    std::vector<std::string> syms = kSymbols;
    for (std::size_t i = 1; syms.size() < 10; ++i) {
      syms.push_back("r1_" + std::to_string(i));
      if (syms.size() < 10) syms.push_back("cg2_" + std::to_string(i));
    }
    const auto model = core::CompiledModel::build(
        c.netlist, syms, circuits::CoupledLinesCircuit::kInput, c.line2_out,
        {.order = 2, .with_gradients = true});
    for (const auto& name : model.symbol_names())
      nominals.push_back(
          c.netlist.elements()[*c.netlist.find_element(name)].value);
    dir = fresh_cache_dir("open");
    path = dir + "/model.awemodel";
    std::ofstream out(path, std::ios::binary);
    model.save(out);
  }
  ~OpenFixture() { std::filesystem::remove_all(dir); }

  static const OpenFixture& instance() {
    static OpenFixture fixture;
    return fixture;
  }
};

void BM_ModelOpenStream(benchmark::State& state) {
  const auto& fx = OpenFixture::instance();
  for (auto _ : state) {
    std::ifstream in(fx.path, std::ios::binary);
    const auto model = core::CompiledModel::load(in);
    benchmark::DoNotOptimize(model.instruction_count());
  }
  state.counters["models_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ModelOpenStream)->Unit(benchmark::kMillisecond);

void BM_ModelOpenV4Map(benchmark::State& state) {
  const auto& fx = OpenFixture::instance();
  for (auto _ : state) {
    const auto model = core::CompiledModel::map_file(fx.path);
    benchmark::DoNotOptimize(model.instruction_count());
  }
  state.counters["models_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ModelOpenV4Map)->Unit(benchmark::kMillisecond);

void BM_ModelOpenV4MapFirstBatch(benchmark::State& state) {
  const auto& fx = OpenFixture::instance();
  constexpr std::size_t kWidth = 64;
  // SoA points: symbol i of point p at [i*kWidth + p], each a small
  // perturbation of the element's netlist value.
  std::vector<double> points(fx.nominals.size() * kWidth);
  for (std::size_t i = 0; i < fx.nominals.size(); ++i)
    for (std::size_t p = 0; p < kWidth; ++p)
      points[i * kWidth + p] =
          fx.nominals[i] * (1.0 + 0.002 * static_cast<double>(p));
  for (auto _ : state) {
    const auto model = core::CompiledModel::map_file(fx.path);
    auto ws = model.make_batch_workspace(kWidth);
    std::vector<double> moments(model.moment_count() * kWidth);
    std::vector<unsigned char> ok(kWidth);
    model.moments_batch(points, kWidth, kWidth, ws, moments, kWidth, ok);
    benchmark::DoNotOptimize(moments.data());
  }
  state.counters["models_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ModelOpenV4MapFirstBatch)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // The printed comparison table is for humans; CI bench runs set
  // AWE_BENCH_TABLE=0 and consume only the google-benchmark JSON.
  if (const char* e = std::getenv("AWE_BENCH_TABLE"); !e || std::string_view(e) != "0")
    print_comparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
