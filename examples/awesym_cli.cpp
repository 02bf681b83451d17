// awesym_cli — command-line AWEsymbolic driver.
//
// Reads a SPICE-like deck (with .input/.output/.symbol directives), builds
// the compiled symbolic model, and serves the iterative use cases the
// paper targets: parameter sweeps, transient/AC queries, closed forms and
// C export — all from the shell.
//
// Exit status: 0 on success, 1 on a deck or build error, 2 on bad usage.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
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

/// "lo:hi:n": two SPICE values and n >= 1 points.
Sweep parse_range(const std::string& spec, std::string name = {}) {
  const auto p = split(spec, ':');
  const auto n = p.size() == 3 ? cli::parse_number<std::size_t>(p[2], 1) : std::nullopt;
  if (!n) throw std::invalid_argument("expected lo:hi:n with n >= 1");
  return {std::move(name), circuit::parse_spice_value(p[0]),
          circuit::parse_spice_value(p[1]), *n};
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
  std::size_t order = 2;
  std::optional<std::vector<std::string>> symbols_override;
  std::size_t auto_symbols = 0;
  std::optional<std::vector<double>> at_values;
  std::vector<Sweep> sweeps;
  std::string what = "dc";
  std::optional<Sweep> transient, ac;  // 0:T:N and f0:f1:N
  bool closed_forms = false;
  bool want_exact = false;
  std::string emit_c_path;
  std::size_t mc_points = 0;
  std::uint64_t mc_seed = 42;
  sweep::SweepOptions sopts;
  core::BuildOptions build_opts;
  std::string dump_moments;

  const cli::Parser cli{
      .tool = "awesym_cli",
      .synopsis = "<deck.sp> [options]",
      .options = {
          cli::number("--order", "N", order, "Padé order (default 2)", 1),
          {"--symbols", "a,b,...", "override the deck's .symbol directives",
           [&](const std::string& v) {
             symbols_override = split(v, ',');
             return true;
           }},
          cli::number("--auto-symbols", "K", auto_symbols,
                      "pick K symbols by AWEsensitivity ranking"),
          {"--at", "v1,v2,...", "evaluate at these symbol values (default: nominal)",
           [&](const std::string& v) {
             at_values.emplace();
             for (const auto& x : split(v, ','))
               at_values->push_back(circuit::parse_spice_value(x));
             return true;
           }},
          {"--sweep", "name=lo:hi:n", "sweep one symbol (give twice for 2-D)",
           [&](const std::string& v) {
             const auto eq = v.find('=');
             if (eq == std::string::npos) return false;
             sweeps.push_back(parse_range(v.substr(eq + 1), v.substr(0, eq)));
             return true;
           }},
          cli::number("--mc", "N", mc_points,
                      "Monte Carlo sweep of N points through the sweep engine"),
          cli::number("--seed", "S", mc_seed, "Monte Carlo seed (default 42)"),
          cli::number("--threads", "N", sopts.threads,
                      "sweep worker threads, 0 = hardware (default 0)"),
          cli::text("--cache-dir", "DIR", build_opts.cache_dir,
                    "build through the persistent model cache under DIR"),
          cli::flag("--mmap", build_opts.map_model,
                    "with --cache-dir: mmap a v5 cache hit in place"),
          cli::text("--dump-moments", "FILE", dump_moments,
                    "with --mc: write every moment as text (\"-\" = stdout)"),
          cli::HealthJsonSink::option(),
          {"--measure", "M", "dc | p1 | funity | pm | t50 (default dc)",
           [&](const std::string& v) {
             what = v;
             return v == "dc" || v == "p1" || v == "funity" || v == "pm" || v == "t50";
           }},
          {"--transient", "T:N", "print N step-response samples up to time T",
           [&](const std::string& v) {
             transient = parse_range("0:" + v);
             return true;
           }},
          {"--ac", "f0:f1:N", "print an N-point AC sweep from the model",
           [&](const std::string& v) {
             ac = parse_range(v);
             return true;
           }},
          cli::flag("--closed-forms", closed_forms,
                    "print symbolic pole/gain closed forms"),
          cli::flag("--exact", want_exact,
                    "also print the exact symbolic H(s, e) (small circuits only)"),
          cli::text("--emit-c", "FILE", emit_c_path,
                    "write the compiled moment program as C source")},
      .min_args = 1,
      .max_args = 1,
      .sink = &sink};
  const std::string deck_path = cli.parse(argc, argv)[0];

  // A deck error found after parsing: message, health JSON, exit 1.
  const auto deck_error = [&](const std::string& msg) {
    std::fprintf(stderr, "%s\n", msg.c_str());
    sink.flush();
    return 1;
  };
  try {
    std::ifstream in(deck_path);
    if (!in) return deck_error("cannot open deck '" + deck_path + "'");
    auto deck = circuit::parse_deck(in);
    for (const auto& problem : deck.netlist.validate())
      std::fprintf(stderr, "warning: %s\n", problem.c_str());
    if (deck.input_source.empty() || deck.output_node.empty())
      return deck_error("deck needs .input and .output directives");
    const auto out_node = deck.netlist.find_node(deck.output_node);
    if (!out_node) return deck_error("unknown .output node '" + deck.output_node + "'");

    std::vector<std::string> symbols =
        symbols_override ? *symbols_override : deck.symbol_elements;
    if (auto_symbols > 0)
      symbols = core::select_symbols(deck.netlist, deck.input_source, *out_node, order,
                                     auto_symbols);
    if (symbols.empty())
      return deck_error("no symbols: use .symbol directives, --symbols or --auto-symbols");

    const core::CompiledModel model = core::CompiledModel::build(
        deck.netlist, symbols, deck.input_source, *out_node, {.order = order}, build_opts);
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
      if (values.size() != symbols.size())
        return deck_error("--at needs " + std::to_string(symbols.size()) + " values");
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
      sopts.with_rom = true;
      const auto sr = sweep::monte_carlo(model, dists, mc_points, mc_seed, sopts);
      const auto& h = sr.health;
      std::printf("monte carlo: %zu points, seed %llu\n", mc_points,
                  static_cast<unsigned long long>(mc_seed));
      std::printf("  ok %llu, degraded %llu, quarantined %llu\n",
                  static_cast<unsigned long long>(h.points_ok),
                  static_cast<unsigned long long>(h.points_degraded),
                  static_cast<unsigned long long>(h.points_quarantined));
      std::printf("  ladder: %llu order fallbacks, %llu shifted refits\n",
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
        // byte-identical dumps — across thread counts and heap/mmap
        // backings.
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
        for (std::size_t i = 0; i <= transient->steps; ++i) {
          const double t = transient->hi * static_cast<double>(i) / transient->steps;
          std::printf("  %12.5e  %12.6f\n", t, rom.step_response(t));
        }
      }
      if (ac) {
        std::printf("\nAC sweep (from the reduced model):\n");
        for (const double f : engine::AcAnalysis::log_space(ac->lo, ac->hi, ac->steps))
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
