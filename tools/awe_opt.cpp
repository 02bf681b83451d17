// awe_opt — gradient-driven design optimization over compiled models
// (DESIGN.md §14).
//
// Built on the reverse-mode gradient subsystem: the deck's symbolic
// elements are the design variables, their exact compiled gradients drive
// nominal re-centering (hit a performance target) and worst-case corner
// search, and the batched sweep engine scores the result statistically
// (Monte Carlo yield before vs after).  Also the workhorse behind the
// determinism matrix's gradient rows (tools/determinism_matrix.py):
// --grad-dump writes every sweep gradient as deterministic text,
// byte-compared across thread counts and heap/mmap backings.
//
// Exit status: 0 on success, 1 when a requested optimization failed to
// improve/converge, 2 on bad usage or deck errors.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "circuit/parser.hpp"
#include "core/cli_support.hpp"
#include "core/model_cache.hpp"
#include "engine/optimize.hpp"
#include "engine/sweep.hpp"
#include "health/report.hpp"

namespace {

using namespace awe;

/// Deterministic text serialization of a gradient sweep: every value
/// printed with %.17g (round-trips doubles exactly), rows in a fixed
/// order — so strict-mode runs byte-agree whatever the thread count.
void dump_gradients(std::FILE* out, const sweep::SweepResult& res) {
  // When dumping to stdout a downstream "| head" may close the pipe at any
  // row; under the SIGPIPE guard that surfaces as a stream error — stop
  // emitting (the consumer is done), don't die mid-dump.
  const bool to_stdout = out == stdout;
  const auto gone = [to_stdout] { return to_stdout && !cli::stdout_alive(); };
  std::fprintf(out, "# awe_opt grad dump points=%zu symbols=%zu moments=%zu\n",
               res.num_points, res.num_symbols, res.num_moments);
  for (std::size_t p = 0; p < res.num_points; ++p)
    std::fprintf(out, "ok %zu %u\n", p, static_cast<unsigned>(res.ok[p]));
  if (gone()) return;
  for (std::size_t k = 0; k < res.num_moments; ++k) {
    for (std::size_t p = 0; p < res.num_points; ++p)
      std::fprintf(out, "m %zu %zu %.17g\n", k, p, res.moment(k, p));
    if (gone()) return;
  }
  for (std::size_t i = 0; i < res.num_symbols; ++i) {
    for (std::size_t k = 0; k < res.num_moments; ++k)
      for (std::size_t p = 0; p < res.num_points; ++p)
        std::fprintf(out, "g %zu %zu %zu %.17g\n", i, k, p, res.gradient(i, k, p));
    if (gone()) return;
  }
  if (res.sensitivities) {
    const sweep::SensitivitySamples& ss = *res.sensitivities;
    for (std::size_t p = 0; p < res.num_points; ++p) {
      std::fprintf(out, "sok %zu %u\n", p, static_cast<unsigned>(ss.ok[p]));
      for (std::size_t j = 0; j < ss.max_order; ++j)
        for (std::size_t i = 0; i < ss.num_symbols; ++i) {
          const auto d = ss.dpole[(p * ss.max_order + j) * ss.num_symbols + i];
          std::fprintf(out, "s %zu %zu %zu %.17g %.17g\n", p, j, i, d.real(), d.imag());
        }
      if (gone()) return;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  cli::install_sigpipe_guard();
  const cli::HealthJsonSink sink = cli::HealthJsonSink::from_argv(argc, argv);
  core::ModelOptions mopts;
  mopts.with_gradients = true;
  core::BuildOptions bopts;
  sweep::SweepOptions sopts;
  sopts.threads = 1;
  opt::Measure measure = opt::Measure::kPole1Hz;
  std::optional<double> target;
  std::optional<double> corners_frac;
  std::size_t mc_n = 0;
  double mc_sigma = 0.2;
  std::uint64_t mc_seed = 1992;
  std::optional<double> spec_pole_hz;
  std::string grad_dump;
  bool quiet = false;

  const cli::Parser cli{
      .tool = "awe_opt",
      .synopsis = "[options] deck.sp",
      .options = {
          cli::number("--order", "Q", mopts.order, "Padé order (default 2)", 1),
          {"--measure", "M", "dcgain | elmore | pole1 (default pole1)",
           [&](const std::string& m) { return opt::parse_measure(m, measure); }},
          cli::number("--target", "V", target,
                      "re-center the nominal so the measure hits V"),
          cli::number("--corners", "FRAC", corners_frac,
                      "worst/best-case corners over value*(1 +- FRAC), 0 < FRAC < 1",
                      std::nextafter(0.0, 1.0), std::nextafter(1.0, 0.0)),
          cli::number("--mc", "N", mc_n,
                      "Monte Carlo yield samples (before and after --target)"),
          cli::number("--sigma", "S", mc_sigma, "lognormal sigma for --mc (default 0.2)"),
          cli::number("--seed", "S", mc_seed, "Monte Carlo seed (default 1992)"),
          cli::number("--spec-pole-hz", "F", spec_pole_hz,
                      "yield spec: stable and |Re p1|/2pi < F"),
          cli::text("--grad-dump", "FILE", grad_dump,
                    "dump moments, gradients and pole sensitivities (- = stdout)"),
          cli::number("--threads", "N", sopts.threads,
                      "sweep workers, 0 = hardware (default 1)"),
          cli::number("--width", "W", sopts.batch_width,
                      "sweep lane-block width (default 64)"),
          cli::flag("--fast", sopts.mode,
                    "EvalMode::kFast (default strict)", core::EvalMode::kFast),
          cli::text("--cache-dir", "DIR", bopts.cache_dir,
                    "persistent model cache to build through"),
          cli::flag("--mmap", bopts.map_model,
                    "with --cache-dir: mmap a v4 cache hit in place"),
          cli::HealthJsonSink::option(),
          cli::flag("--quiet", quiet, "suppress the narrative lines")},
      .min_args = 1,
      .max_args = 1,
      .sink = &sink};
  const std::string deck_path = cli.parse(argc, argv)[0];

  int exit_code = 0;
  try {
    std::ifstream in(deck_path);
    if (!in) throw std::runtime_error("cannot open deck");
    const circuit::ParsedDeck deck = circuit::parse_deck(in);
    if (deck.symbol_elements.empty() || deck.input_source.empty() ||
        deck.output_node.empty())
      throw std::runtime_error("deck needs .symbol/.input/.output directives");

    const auto model =
        core::CompiledModel::build(deck.netlist, deck.symbol_elements, deck.input_source,
                                   deck.output_node, mopts, bopts);
    const std::size_t nsym = model.symbol_count();

    // The deck's symbol element values are the nominal design point.
    std::vector<double> nominal(nsym);
    {
      const auto names = model.symbol_names();
      for (std::size_t i = 0; i < nsym; ++i) {
        const auto idx = deck.netlist.find_element(names[i]);
        if (!idx) throw std::runtime_error("symbol element not in netlist");
        nominal[i] = deck.netlist.elements()[*idx].value;
      }
    }

    const auto m0 = opt::eval_measure(model, measure, nominal);
    if (!quiet) {
      std::printf("model: %zu symbols, %zu instructions (grad program attached)\n",
                  nsym, model.instruction_count());
      std::printf("nominal %s = %.6g  gradient [", opt::to_string(measure), m0.value);
      for (std::size_t i = 0; i < nsym; ++i)
        std::printf("%s%.6g", i ? ", " : "", m0.gradient[i]);
      std::printf("]\n");
    }

    const auto yield_of = [&](std::span<const double> center) {
      std::vector<sweep::Distribution> process;
      for (std::size_t i = 0; i < nsym; ++i)
        process.push_back(sweep::Distribution::lognormal(center[i], mc_sigma));
      sweep::SweepOptions yopts = sopts;
      yopts.with_rom = true;
      const double limit = *spec_pole_hz;
      yopts.pass_predicate = [limit](const engine::ReducedOrderModel& rom) {
        const auto p1 = rom.dominant_pole();
        return rom.is_stable() && p1.has_value() &&
               std::abs(p1->real()) / (2.0 * M_PI) < limit;
      };
      return sweep::monte_carlo(model, process, mc_n, mc_seed, yopts).yield();
    };

    std::vector<double> center = nominal;
    double yield_before = -1.0;
    if (mc_n > 0 && spec_pole_hz) {
      yield_before = yield_of(center);
      if (!quiet) std::printf("yield at nominal: %.2f%%\n", 100.0 * yield_before);
    }

    if (target) {
      opt::RecenterOptions ropts;
      ropts.measure = measure;
      ropts.target = *target;
      const auto rec = opt::recenter_nominal(model, ropts, nominal);
      if (!quiet) {
        std::printf("recenter: %s %.6g -> %.6g (target %.6g) in %zu iters, %s\n",
                    opt::to_string(measure), m0.value, rec.value, *target,
                    rec.iterations, rec.converged ? "converged" : "NOT converged");
        std::printf("recentered nominal [");
        for (std::size_t i = 0; i < nsym; ++i)
          std::printf("%s%.6g", i ? ", " : "", rec.x[i]);
        std::printf("]\n");
      }
      if (!rec.converged) exit_code = 1;
      center = rec.x;
      if (mc_n > 0 && spec_pole_hz) {
        const double yield_after = yield_of(center);
        if (!quiet)
          std::printf("yield after recenter: %.2f%% (was %.2f%%)\n",
                      100.0 * yield_after, 100.0 * yield_before);
        if (yield_after < yield_before) exit_code = 1;
      }
    }

    if (corners_frac) {
      opt::CornerSearchOptions copts;
      copts.measure = measure;
      copts.lo.resize(nsym);
      copts.hi.resize(nsym);
      for (std::size_t i = 0; i < nsym; ++i) {
        copts.lo[i] = center[i] * (1.0 - *corners_frac);
        copts.hi[i] = center[i] * (1.0 + *corners_frac);
      }
      for (const bool maximize : {true, false}) {
        copts.maximize = maximize;
        const auto cr = opt::worst_case_corner(model, copts);
        if (!quiet) {
          std::printf("%s-case corner: %s = %.6g at [", maximize ? "max" : "min",
                      opt::to_string(measure), cr.value);
          for (std::size_t i = 0; i < nsym; ++i)
            std::printf("%s%.6g", i ? ", " : "", cr.corner[i]);
          std::printf("] (%zu iters, %s)\n", cr.iterations,
                      cr.converged ? "fixed point" : "iteration limit");
        }
      }
    }

    if (!grad_dump.empty()) {
      const std::size_t n = mc_n > 0 ? mc_n : 256;
      std::vector<sweep::Distribution> process;
      for (std::size_t i = 0; i < nsym; ++i)
        process.push_back(sweep::Distribution::lognormal(center[i], mc_sigma));
      sweep::SweepOptions gopts = sopts;
      gopts.gradients = true;
      gopts.pole_sensitivities = true;
      const auto res = sweep::monte_carlo(model, process, n, mc_seed, gopts);
      std::FILE* out = grad_dump == "-" ? stdout : std::fopen(grad_dump.c_str(), "w");
      if (!out) throw std::runtime_error("cannot write " + grad_dump);
      dump_gradients(out, res);
      if (out != stdout) {
        if (std::ferror(out) || std::fclose(out) != 0)
          throw std::runtime_error("short write to " + grad_dump);
      } else {
        std::clearerr(stdout);
      }
      if (!quiet)
        std::printf("grad dump: %zu points x %zu symbols x %zu moments -> %s\n", n,
                    nsym, res.num_moments, grad_dump.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "awe_opt: %s: %s\n", deck_path.c_str(), e.what());
    health::HealthReport report;
    report.record_failure(health::fail_class_of(e));
    sink.flush_report(report);
    return 2;
  }

  sink.flush();
  return exit_code;
}
