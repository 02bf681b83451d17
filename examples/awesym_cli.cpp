// awesym_cli — command-line AWEsymbolic driver.
//
// Reads a SPICE-like deck (with .input/.output/.symbol directives), builds
// the compiled symbolic model, and serves the iterative use cases the
// paper targets: parameter sweeps, transient/AC queries, closed forms and
// C export — all from the shell.
//
// Usage:
//   awesym_cli <deck.sp> [options]
// Options:
//   --order N              Padé order (default 2)
//   --symbols a,b,...      override the deck's .symbol directives
//   --auto-symbols K       pick K symbols by AWEsensitivity ranking
//   --at v1,v2,...         evaluate at these symbol element values
//                          (default: the deck's nominal values)
//   --sweep name=lo:hi:n   sweep one symbol (repeatable once more for 2-D)
//   --mc N                 Monte-Carlo sweep of N points through the
//                          parallel sweep engine with the per-point
//                          degradation ladder; prints an ok/degraded/
//                          quarantined disposition summary
//   --seed S               Monte-Carlo seed (default 42)
//   --threads N            sweep worker threads, 0 = hardware (default 0)
//   --cache-dir DIR        build through the persistent model cache under
//                          DIR
//   --mmap                 with --cache-dir: mmap a v4 cache hit in place
//                          (CompiledModel::map_file) instead of stream-
//                          parsing it — the zero-copy warm-open path
//   --shm NAME             publish the built model into a SharedModelStore
//                          backed by POSIX shared memory ("/NAME.g1") and
//                          evaluate through the pinned view — exercises
//                          the cross-process hot-swap path end to end
//   --dump-moments FILE    with --mc: write every point's ok flag and raw
//                          moments as deterministic text ("-" for stdout);
//                          byte-identical across thread counts and
//                          backings (heap/mmap/shm) in strict mode
//   --health-json FILE     write the run's HealthReport as JSON
//                          ("-" for stdout)
//   --measure M            dc | p1 | funity | pm | t50   (default dc)
//   --transient T:N        print N step-response samples up to time T
//   --ac f0:f1:N           print an AC sweep table from the model
//   --closed-forms         print symbolic pole/gain closed forms
//   --exact                also run the traditional exact symbolic analysis
//                          and print H(s, e) (small circuits only)
//   --emit-c FILE          write the compiled moment program as C source
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "awe/ac.hpp"
#include "awe/sensitivity.hpp"
#include "circuit/parser.hpp"
#include "core/awesymbolic.hpp"
#include "core/cli_support.hpp"
#include "engine/sweep.hpp"
#include "exact/exact_symbolic.hpp"
#include "health/report.hpp"

namespace {

using namespace awe;

/// Set before argument parsing so even the usage() exit can flush a valid
/// --health-json report (DESIGN.md §16.5).
const cli::HealthJsonSink* g_health_sink = nullptr;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <deck.sp> [--order N] [--symbols a,b] [--auto-symbols K]\n"
               "          [--at v1,v2] [--sweep name=lo:hi:n] [--mc N] [--seed S]\n"
               "          [--threads N] [--cache-dir DIR]\n"
               "          [--mmap] [--shm NAME] [--dump-moments FILE]\n"
               "          [--health-json FILE] [--measure M]\n"
               "          [--transient T:N] [--ac f0:f1:N] [--closed-forms]\n"
               "          [--emit-c FILE]\n",
               argv0);
  if (g_health_sink) g_health_sink->flush();
  std::exit(2);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string t;
  while (std::getline(is, t, sep)) out.push_back(t);
  return out;
}

struct Sweep {
  std::string name;
  double lo = 0.0, hi = 0.0;
  std::size_t steps = 0;
  double at(std::size_t i) const {
    if (steps <= 1) return lo;
    return lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(steps - 1);
  }
};

Sweep parse_sweep(const std::string& spec) {
  const auto eq = spec.find('=');
  if (eq == std::string::npos) throw std::runtime_error("bad --sweep spec: " + spec);
  const auto parts = split(spec.substr(eq + 1), ':');
  if (parts.size() != 3) throw std::runtime_error("bad --sweep range: " + spec);
  Sweep s;
  s.name = spec.substr(0, eq);
  s.lo = circuit::parse_spice_value(parts[0]);
  s.hi = circuit::parse_spice_value(parts[1]);
  s.steps = static_cast<std::size_t>(std::stoul(parts[2]));
  if (s.steps == 0) throw std::runtime_error("sweep needs at least 1 step");
  return s;
}

double measure(const engine::ReducedOrderModel& rom, const std::string& what) {
  if (what == "dc") return rom.dc_gain();
  if (what == "p1") {
    const auto p = rom.dominant_pole();
    return p ? p->real() : 0.0;
  }
  if (what == "funity") return rom.unity_gain_frequency();
  if (what == "pm") return rom.phase_margin_deg();
  if (what == "t50") {
    const auto dom = rom.dominant_pole();
    const double horizon = dom ? 50.0 / std::abs(dom->real()) : 1.0;
    const auto t = rom.step_crossing_time(0.5, horizon);
    return t ? *t : -1.0;
  }
  throw std::runtime_error("unknown --measure '" + what + "'");
}

}  // namespace

int main(int argc, char** argv) {
  cli::install_sigpipe_guard();
  const cli::HealthJsonSink sink = cli::HealthJsonSink::from_argv(argc, argv);
  g_health_sink = &sink;
  if (argc < 2) usage(argv[0]);
  std::string deck_path;
  std::size_t order = 2;
  std::optional<std::vector<std::string>> symbols_override;
  std::size_t auto_symbols = 0;
  std::optional<std::vector<double>> at_values;
  std::vector<Sweep> sweeps;
  std::string what = "dc";
  std::optional<std::pair<double, std::size_t>> transient;
  std::optional<std::tuple<double, double, std::size_t>> ac_req;
  bool closed_forms = false;
  bool want_exact = false;
  std::string emit_c_path;
  std::size_t mc_points = 0;
  std::uint64_t mc_seed = 42;
  std::size_t threads = 0;
  std::string cache_dir;
  std::string health_json;
  std::string shm_name;
  std::string dump_moments;
  bool use_mmap = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (++i >= argc) usage(argv[0]);
        return argv[i];
      };
      if (arg == "--order") {
        order = std::stoul(next());
      } else if (arg == "--symbols") {
        symbols_override = split(next(), ',');
      } else if (arg == "--auto-symbols") {
        auto_symbols = std::stoul(next());
      } else if (arg == "--at") {
        at_values.emplace();
        for (const auto& v : split(next(), ','))
          at_values->push_back(circuit::parse_spice_value(v));
      } else if (arg == "--sweep") {
        sweeps.push_back(parse_sweep(next()));
      } else if (arg == "--mc") {
        mc_points = std::stoul(next());
      } else if (arg == "--seed") {
        mc_seed = std::stoull(next());
      } else if (arg == "--threads") {
        threads = std::stoul(next());
      } else if (arg == "--cache-dir") {
        cache_dir = next();
      } else if (arg == "--mmap") {
        use_mmap = true;
      } else if (arg == "--shm") {
        shm_name = next();
      } else if (arg == "--dump-moments") {
        dump_moments = next();
      } else if (arg == "--health-json") {
        health_json = next();
      } else if (arg == "--measure") {
        what = next();
      } else if (arg == "--transient") {
        const auto p = split(next(), ':');
        if (p.size() != 2) usage(argv[0]);
        transient = {circuit::parse_spice_value(p[0]), std::stoul(p[1])};
      } else if (arg == "--ac") {
        const auto p = split(next(), ':');
        if (p.size() != 3) usage(argv[0]);
        ac_req = {circuit::parse_spice_value(p[0]), circuit::parse_spice_value(p[1]),
                  std::stoul(p[2])};
      } else if (arg == "--closed-forms") {
        closed_forms = true;
      } else if (arg == "--exact") {
        want_exact = true;
      } else if (arg == "--emit-c") {
        emit_c_path = next();
      } else if (arg.rfind("--", 0) == 0) {
        usage(argv[0]);
      } else {
        deck_path = arg;
      }
    }
    if (deck_path.empty()) usage(argv[0]);

    std::ifstream in(deck_path);
    if (!in) {
      std::fprintf(stderr, "cannot open deck '%s'\n", deck_path.c_str());
      sink.flush();
      return 1;
    }
    auto deck = circuit::parse_deck(in);
    for (const auto& problem : deck.netlist.validate())
      std::fprintf(stderr, "warning: %s\n", problem.c_str());
    if (deck.input_source.empty() || deck.output_node.empty()) {
      std::fprintf(stderr, "deck needs .input and .output directives\n");
      sink.flush();
      return 1;
    }
    const auto out_node = deck.netlist.find_node(deck.output_node);
    if (!out_node) {
      std::fprintf(stderr, "unknown .output node '%s'\n", deck.output_node.c_str());
      sink.flush();
      return 1;
    }

    std::vector<std::string> symbols =
        symbols_override ? *symbols_override : deck.symbol_elements;
    if (auto_symbols > 0)
      symbols = core::select_symbols(deck.netlist, deck.input_source, *out_node, order,
                                     auto_symbols);
    if (symbols.empty()) {
      std::fprintf(stderr,
                   "no symbols: use .symbol directives, --symbols or --auto-symbols\n");
      sink.flush();
      return 1;
    }

    core::BuildOptions build_opts;
    build_opts.cache_dir = cache_dir;
    build_opts.map_model = use_mmap;
    core::CompiledModel built = core::CompiledModel::build(deck.netlist, symbols,
                                                           deck.input_source, *out_node,
                                                           {.order = order}, build_opts);

    // --shm: publish into a shared-memory hot-swap store and evaluate
    // through a pinned view of the published generation — every downstream
    // query below runs against the shm region, not the heap build.
    std::optional<core::SharedModelStore> store;
    std::shared_ptr<core::CompiledModel> shared;
    if (!shm_name.empty()) {
      store.emplace(shm_name, core::SharedModelStore::Backing::kShm);
      store->publish(built);
      shared = std::make_shared<core::CompiledModel>(*store->acquire());
    } else {
      shared = std::make_shared<core::CompiledModel>(std::move(built));
    }
    const core::CompiledModel& model = *shared;
    std::printf("model: order %zu, symbols", order);
    for (const auto& s : model.symbol_names()) std::printf(" %s", s.c_str());
    std::printf(", %zu ports, %zu compiled instructions", model.port_count(),
                model.instruction_count());
    if (model.view_backed()) std::printf(", view-backed [%s]", model.blob_origin().c_str());
    std::printf("\n\n");

    // Nominal values.
    std::vector<double> values;
    if (at_values) {
      values = *at_values;
      if (values.size() != symbols.size()) {
        std::fprintf(stderr, "--at needs %zu values\n", symbols.size());
        sink.flush();
        return 1;
      }
    } else {
      for (const auto& s : model.symbol_names())
        values.push_back(
            deck.netlist.elements()[*deck.netlist.find_element(s)].value);
    }

    if (closed_forms) {
      const auto names = model.symbol_names();
      std::printf("closed forms (internal symbols; R symbols enter as 1/R):\n");
      std::printf("  A0 = %s\n", model.dc_gain_expression().to_string(names).c_str());
      if (order == 1)
        std::printf("  p1 = %s\n",
                    model.first_order_pole_expression().to_string(names).c_str());
      if (order <= 2) {
        const auto den = model.symbolic_denominator();
        for (std::size_t j = 1; j < den.size(); ++j)
          std::printf("  b%zu = %s\n", j, den[j].to_string(names).c_str());
      }
      std::printf("\n");
    }

    if (want_exact) {
      try {
        const auto xf = exact::exact_symbolic_transfer(
            deck.netlist, symbols, deck.input_source, *out_node);
        std::printf("exact symbolic transfer function (variables: s, symbols):\n");
        std::printf("  H(s,e) = %s\n\n", xf.h.to_string(xf.variable_names).c_str());
      } catch (const std::exception& e) {
        std::printf("exact analysis unavailable: %s\n\n", e.what());
      }
    }

    if (!emit_c_path.empty()) {
      std::ofstream cf(emit_c_path);
      cf << model.export_c_source("awesym_moments");
      std::printf("compiled moment program written to %s\n\n", emit_c_path.c_str());
    }

    if (mc_points > 0) {
      // Monte-Carlo through the fault-contained sweep engine: lognormal
      // spread for positive nominals (element values are scale parameters),
      // normal otherwise.  Pathological draws degrade or quarantine per
      // point; the run itself never aborts.
      std::vector<sweep::Distribution> dists;
      for (const double v : values)
        dists.push_back(v > 0.0 ? sweep::Distribution::lognormal(v, 0.2)
                                : sweep::Distribution::normal(v, 0.1 * std::abs(v) + 1e-12));
      sweep::SweepOptions sopts;
      sopts.threads = threads;
      sopts.with_rom = true;
      const auto sr = sweep::monte_carlo(model, dists, mc_points, mc_seed, sopts);
      const auto& h = sr.health;
      std::printf("monte carlo: %zu points, seed %llu\n", mc_points,
                  static_cast<unsigned long long>(mc_seed));
      std::printf("  ok %llu, degraded %llu, quarantined %llu\n",
                  static_cast<unsigned long long>(h.points_ok),
                  static_cast<unsigned long long>(h.points_degraded),
                  static_cast<unsigned long long>(h.points_quarantined));
      std::printf("  ladder: %llu strict re-evals, %llu order fallbacks, %llu shifted refits\n",
                  static_cast<unsigned long long>(h.strict_reevals),
                  static_cast<unsigned long long>(h.order_fallbacks),
                  static_cast<unsigned long long>(h.shifted_refits));
      if (sr.dc_gain_stats && sr.dc_gain_stats->count > 0)
        std::printf("  dc gain: mean %.8g, stddev %.8g over %zu fitted points\n",
                    sr.dc_gain_stats->mean, sr.dc_gain_stats->stddev,
                    sr.dc_gain_stats->count);
      if (!dump_moments.empty()) {
        // Deterministic text for the CI byte-compare: per point, the ok
        // flag and every raw moment at full precision.  %.17g round-trips
        // IEEE doubles exactly, so bit-identical moments produce
        // byte-identical dumps — across thread counts and heap/mmap/shm
        // backings (strict mode).
        std::FILE* out =
            dump_moments == "-" ? stdout : std::fopen(dump_moments.c_str(), "w");
        if (!out) throw std::runtime_error("cannot write " + dump_moments);
        std::fprintf(out, "# awesym_cli moment dump points=%zu symbols=%zu moments=%zu\n",
                     sr.num_points, sr.num_symbols, sr.num_moments);
        for (std::size_t p = 0; p < sr.num_points; ++p) {
          std::fprintf(out, "%zu %u", p, static_cast<unsigned>(sr.ok[p]));
          for (std::size_t k = 0; k < sr.num_moments; ++k)
            std::fprintf(out, " %.17g", sr.moment(k, p));
          std::fprintf(out, "\n");
          // A dump piped into "| head" closes stdout early; with SIGPIPE
          // ignored that shows up as a stream error.  The consumer got
          // what it wanted — stop writing and exit 0, not die.
          if (out == stdout && !cli::stdout_alive()) break;
        }
        if (out != stdout) {
          if (std::ferror(out) || std::fclose(out) != 0)
            throw std::runtime_error("short write to " + dump_moments);
        } else {
          std::clearerr(stdout);
        }
      }
      sink.flush_report(sr.health);
      return 0;
    }

    if (sweeps.empty()) {
      const auto rom = model.evaluate(values);
      std::printf("at nominal values: %s = %.8g\n", what.c_str(), measure(rom, what));
      if (transient) {
        std::printf("\nstep response:\n");
        for (std::size_t i = 0; i <= transient->second; ++i) {
          const double t =
              transient->first * static_cast<double>(i) / transient->second;
          std::printf("  %12.5e  %12.6f\n", t, rom.step_response(t));
        }
      }
      if (ac_req) {
        const auto [f0, f1, n] = *ac_req;
        std::printf("\nAC sweep (from the reduced model):\n");
        for (const double f : engine::AcAnalysis::log_space(f0, f1, n))
          std::printf("  %12.5e Hz  |H|=%12.6g  phase=%8.2f deg\n", f, rom.magnitude(f),
                      rom.phase_deg(f));
      }
      sink.flush();
      return 0;
    }

    // Sweeps (1-D or 2-D).
    auto index_of = [&](const std::string& name) -> std::size_t {
      const auto names = model.symbol_names();
      for (std::size_t i = 0; i < names.size(); ++i)
        if (names[i] == name) return i;
      throw std::runtime_error("sweep name '" + name + "' is not a symbol");
    };
    if (sweeps.size() == 1) {
      const auto& sw = sweeps[0];
      const std::size_t si = index_of(sw.name);
      std::printf("%-14s %-14s\n", sw.name.c_str(), what.c_str());
      for (std::size_t i = 0; i < sw.steps; ++i) {
        values[si] = sw.at(i);
        std::printf("%-14.6g %-14.6g\n", values[si], measure(model.evaluate(values), what));
      }
    } else {
      const auto& s0 = sweeps[0];
      const auto& s1 = sweeps[1];
      const std::size_t i0 = index_of(s0.name), i1 = index_of(s1.name);
      std::printf("%s \\ %s (%s)\n%-12s", s0.name.c_str(), s1.name.c_str(), what.c_str(),
                  "");
      for (std::size_t j = 0; j < s1.steps; ++j) std::printf(" %11.4g", s1.at(j));
      std::printf("\n");
      for (std::size_t i = 0; i < s0.steps; ++i) {
        values[i0] = s0.at(i);
        std::printf("%-12.4g", values[i0]);
        for (std::size_t j = 0; j < s1.steps; ++j) {
          values[i1] = s1.at(j);
          std::printf(" %11.5g", measure(model.evaluate(values), what));
        }
        std::printf("\n");
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    health::HealthReport report;
    report.record_failure(health::fail_class_of(e));
    sink.flush_report(report);
    return 1;
  }
  sink.flush();
  return 0;
}
