// awe_fuzz — differential fuzzing driver.
//
// Generates seeded random netlists, cross-checks the five evaluation
// paths (exact symbolic, numeric AWE, compiled strict, compiled fast,
// sweep engine), shrinks any mismatch to a minimal reproducing deck, and
// writes deterministic JSON statistics.
//
// Usage:
//   awe_fuzz [options]
// Options:
//   --count N            cases to run (default 100)
//   --seed S             campaign master seed (default 42)
//   --order Q            Padé order; 2Q moments compared (default 2)
//   --max-dim D          MNA dimension budget, <= 16 (default 12)
//   --max-nodes N        spine node cap (default 6)
//   --fault F            none | perturb-fast  (inject a defect to test
//                        the detector; perturb-fast skews the fused
//                        kernel's m_0 by 2^-10)
//   --no-shrink          skip minimization of failing decks
//   --json FILE          write the JSON stats report to FILE
//   --minimized-out DIR  write each minimized failing deck to DIR
//   --emit-corpus DIR    ALSO write every deck whose oracles agree to DIR
//                        (regression-corpus seeding)
//   --cache-dir DIR      route every compiled-model build through the
//                        persistent cache under DIR and round-trip the
//                        model through the binary serializer before use —
//                        the serializer becomes a sixth implicit oracle
//                        (any save/load defect reports as a mismatch)
//   --gradients          rebuild each agreeing case with compiled
//                        reverse-mode gradients and cross-check every
//                        d(moment)/d(value) against central finite
//                        differences AND the adjoint numeric
//                        sensitivities — the gradient subsystem becomes
//                        a seventh oracle.  Non-differentiable symbol
//                        elements are skipped (never a mismatch).
//   --quiet              summary line only
//
// Exit status: 0 = no mismatches, 1 = mismatches found, 2 = bad usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "testing/fuzz.hpp"

namespace {

using namespace awe;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--count N] [--seed S] [--order Q] [--max-dim D]\n"
               "          [--max-nodes N] [--fault none|perturb-fast] [--no-shrink]\n"
               "          [--json FILE] [--minimized-out DIR] [--emit-corpus DIR]\n"
               "          [--cache-dir DIR] [--gradients] [--quiet]\n",
               argv0);
  std::exit(2);
}

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
  testing::FuzzOptions opts;
  std::string json_file, minimized_dir, corpus_dir;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--count") {
      opts.count = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--order") {
      opts.oracle.order = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--max-dim") {
      opts.gen.max_mna_dim = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--max-nodes") {
      opts.gen.max_spine_nodes = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--fault") {
      const std::string f = next();
      if (f == "none") {
        opts.oracle.fault = testing::FaultInjection::kNone;
      } else if (f == "perturb-fast") {
        opts.oracle.fault = testing::FaultInjection::kPerturbFastMoment0;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--no-shrink") {
      opts.shrink = false;
    } else if (arg == "--json") {
      json_file = next();
    } else if (arg == "--minimized-out") {
      minimized_dir = next();
    } else if (arg == "--emit-corpus") {
      corpus_dir = next();
    } else if (arg == "--cache-dir") {
      opts.oracle.cache_dir = next();
    } else if (arg == "--gradients") {
      opts.oracle.gradients = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      usage(argv[0]);
    }
  }
  if (opts.oracle.order < 1 || opts.count < 1) usage(argv[0]);

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
