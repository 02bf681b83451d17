#include "testing/fuzz.hpp"

#include <algorithm>
#include <utility>

#include "testing/shrink.hpp"
#include "text/json.hpp"

namespace awe::testing {

std::string FuzzSummary::to_json() const {
  std::string out = "{";
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"seed", seed},
      {"count", count},
      {"agree", agree},
      {"mismatch", mismatch},
      {"ill_conditioned", ill_conditioned},
      {"singular", singular},
      {"pade_flagged", pade_flagged},
      {"gradients_checked", gradients_checked},
      {"gradients_skipped", gradients_skipped},
      {"moments_compared", moments_compared},
      {"moments_skipped", moments_skipped},
      {"elements_generated", elements_generated},
      {"max_mna_dim", max_mna_dim}};
  for (const auto& [key, n] : counts) {
    out += "\n  \"";
    out += key;
    out += "\": ";
    json::append_uint(out, n);
    out += ',';
  }
  out += "\n  \"worst_rel_err\": ";
  json::append_exact(out, worst_rel_err);
  out += ",\n  \"worst_seed\": ";
  json::append_uint(out, worst_seed);
  out += ",\n  \"health\": ";
  out += health.to_json(2);
  out += ",\n  \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    const FuzzFailure& f = failures[i];
    out += i ? ",\n    {\n      \"seed\": " : "\n    {\n      \"seed\": ";
    json::append_uint(out, f.seed);
    out += ",\n      \"detail\": ";
    json::append_quoted(out, f.detail);
    out += ",\n      \"minimized_elements\": ";
    json::append_uint(out, f.minimized_elements);
    out += ",\n      \"deck\": ";
    json::append_quoted(out, f.deck);
    out += ",\n      \"minimized\": ";
    json::append_quoted(out, f.minimized);
    out += "\n    }";
  }
  out += failures.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

OracleResult run_case(std::uint64_t seed, const FuzzOptions& opts) {
  GenOptions gen = opts.gen;
  gen.seed = seed;
  return run_oracles(generate_deck(gen).parsed, opts.oracle);
}

FuzzSummary run_fuzz(const FuzzOptions& opts) {
  FuzzSummary sum;
  sum.seed = opts.seed;
  sum.count = opts.count;
  for (std::size_t i = 0; i < opts.count; ++i) {
    GenOptions gen = opts.gen;
    gen.seed = case_seed(opts.seed, i);
    const GeneratedDeck g = generate_deck(gen);
    sum.elements_generated += g.parsed.netlist.elements().size();
    sum.max_mna_dim = std::max(sum.max_mna_dim, g.mna_dim);

    const OracleResult r = run_oracles(g.parsed, opts.oracle);
    if (opts.on_case) opts.on_case(g, r);
    sum.health.merge(r.health);
    sum.moments_compared += r.moments_compared;
    sum.moments_skipped += r.moments_skipped;
    if (!r.pade_ok) ++sum.pade_flagged;
    if (opts.oracle.gradients)
      ++(r.gradients_ran ? sum.gradients_checked : sum.gradients_skipped);
    switch (r.status) {
      case OracleStatus::kAgree:
        ++sum.agree;
        if (r.max_rel_err > sum.worst_rel_err) {
          sum.worst_rel_err = r.max_rel_err;
          sum.worst_seed = gen.seed;
        }
        break;
      case OracleStatus::kIllConditioned: ++sum.ill_conditioned; break;
      case OracleStatus::kSingular: ++sum.singular; break;
      case OracleStatus::kMismatch: {
        ++sum.mismatch;
        FuzzFailure f;
        f.seed = gen.seed;
        f.detail = r.detail;
        f.deck = g.text;
        if (opts.shrink) {
          // Preserve the mismatch signature, not just "some mismatch":
          // deleting elements can otherwise morph e.g. a fused-kernel
          // divergence into an unrelated path-rejection finding.
          const auto shrunk = shrink_deck(g.parsed, [&](const circuit::ParsedDeck& d) {
            const OracleResult rr = run_oracles(d, opts.oracle);
            return rr.status == OracleStatus::kMismatch &&
                   rr.mismatch_kind == r.mismatch_kind;
          });
          f.minimized = shrunk.text;
          f.minimized_elements = shrunk.deck.netlist.elements().size();
        }
        sum.failures.push_back(std::move(f));
        break;
      }
    }
  }
  health::absorb_global_counters(sum.health);
  return sum;
}

}  // namespace awe::testing
