// awe_fuzz — differential fuzzing driver.
//
// Generates seeded random netlists, cross-checks the five evaluation
// paths (exact symbolic, numeric AWE, compiled strict, compiled fast,
// sweep engine), shrinks any mismatch to a minimal reproducing deck, and
// writes deterministic JSON statistics.
//
// stdout: the JSON report (unless --json FILE or --quiet), then a summary
// line and one line per mismatch.
// Exit status: 0 = no mismatches, 1 = mismatches found, 2 = bad usage.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/cli_support.hpp"
#include "testing/fuzz.hpp"

namespace {

using namespace awe;

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "awe_fuzz: cannot write %s\n", path.c_str());
    std::exit(2);
  }
  os << text;
}

}  // namespace

int main(int argc, char** argv) {
  cli::install_sigpipe_guard();
  testing::FuzzOptions opts;
  std::string json_file, minimized_dir, corpus_dir;
  bool quiet = false;

  const cli::Parser cli{
      .tool = "awe_fuzz",
      .synopsis = "[options]",
      .options = {
          cli::number("--count", "N", opts.count, "cases to run (default 100)", 1),
          cli::number("--seed", "S", opts.seed, "campaign master seed (default 42)"),
          cli::number("--order", "Q", opts.oracle.order,
                      "Padé order; 2Q moments compared (default 2)", 1),
          cli::number("--max-dim", "D", opts.gen.max_mna_dim,
                      "MNA dimension budget, <= 16 (default 12)"),
          cli::number("--max-nodes", "N", opts.gen.max_spine_nodes,
                      "spine node cap (default 6)"),
          {"--fault", "F", "none | perturb-fast (skew the fused kernel's m_0 by 2^-10)",
           [&](const std::string& f) {
             if (f != "none" && f != "perturb-fast") return false;
             opts.oracle.fault = f == "none" ? testing::FaultInjection::kNone
                                             : testing::FaultInjection::kPerturbFastMoment0;
             return true;
           }},
          cli::flag("--no-shrink", opts.shrink,
                    "skip minimization of failing decks", false),
          cli::text("--json", "FILE", json_file, "write the JSON stats report to FILE"),
          cli::text("--minimized-out", "DIR", minimized_dir,
                    "write each minimized failing deck to DIR"),
          cli::text("--emit-corpus", "DIR", corpus_dir,
                    "also write every deck whose oracles agree to DIR"),
          cli::text("--cache-dir", "DIR", opts.oracle.cache_dir,
                    "build through the model cache under DIR, round-tripping each model"),
          cli::flag("--gradients", opts.oracle.gradients,
                    "cross-check compiled gradients (adjoint, finite differences)"),
          cli::flag("--quiet", quiet, "summary line only")}};
  cli.parse(argc, argv);

  if (!corpus_dir.empty()) {
    std::filesystem::create_directories(corpus_dir);
    opts.on_case = [&](const testing::GeneratedDeck& g, const testing::OracleResult& r) {
      if (r.status != testing::OracleStatus::kAgree) return;
      char name[64];
      std::snprintf(name, sizeof name, "gen_%016llx.sp",
                    static_cast<unsigned long long>(g.seed));
      write_file(std::filesystem::path(corpus_dir) / name, g.text);
    };
  }

  const testing::FuzzSummary sum = testing::run_fuzz(opts);

  if (!minimized_dir.empty() && !sum.failures.empty()) {
    std::filesystem::create_directories(minimized_dir);
    for (const auto& f : sum.failures) {
      char name[64];
      std::snprintf(name, sizeof name, "minimized_%016llx.sp",
                    static_cast<unsigned long long>(f.seed));
      write_file(std::filesystem::path(minimized_dir) / name,
                 f.minimized.empty() ? f.deck : f.minimized);
    }
  }

  const std::string json = sum.to_json();
  if (!json_file.empty()) write_file(json_file, json);

  // Under the SIGPIPE guard a consumer that closed stdout early ("| head")
  // only makes these writes fail; the exit status still reports mismatches.
  if (!quiet && json_file.empty()) std::fputs(json.c_str(), stdout);
  std::printf("awe_fuzz: %zu cases — %zu agree, %zu mismatch, %zu ill-conditioned, "
              "%zu singular (worst rel err %.3g @ seed %llu)\n",
              sum.count, sum.agree, sum.mismatch, sum.ill_conditioned, sum.singular,
              sum.worst_rel_err, static_cast<unsigned long long>(sum.worst_seed));
  for (const auto& f : sum.failures)
    std::printf("  MISMATCH seed=%llu (%zu-element repro): %s\n",
                static_cast<unsigned long long>(f.seed), f.minimized_elements,
                f.detail.c_str());
  return sum.mismatch == 0 ? 0 : 1;
}
