#include "testing/fuzz.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "testing/shrink.hpp"

namespace awe::testing {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string FuzzSummary::to_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"seed\": " << seed << ",\n";
  os << "  \"count\": " << count << ",\n";
  os << "  \"agree\": " << agree << ",\n";
  os << "  \"mismatch\": " << mismatch << ",\n";
  os << "  \"ill_conditioned\": " << ill_conditioned << ",\n";
  os << "  \"singular\": " << singular << ",\n";
  os << "  \"pade_flagged\": " << pade_flagged << ",\n";
  os << "  \"gradients_checked\": " << gradients_checked << ",\n";
  os << "  \"gradients_skipped\": " << gradients_skipped << ",\n";
  os << "  \"moments_compared\": " << moments_compared << ",\n";
  os << "  \"moments_skipped\": " << moments_skipped << ",\n";
  os << "  \"elements_generated\": " << elements_generated << ",\n";
  os << "  \"max_mna_dim\": " << max_mna_dim << ",\n";
  os << "  \"worst_rel_err\": " << json_double(worst_rel_err) << ",\n";
  os << "  \"worst_seed\": " << worst_seed << ",\n";
  os << "  \"health\": " << health.to_json(2) << ",\n";
  os << "  \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    const auto& f = failures[i];
    os << (i ? "," : "") << "\n    {\n";
    os << "      \"seed\": " << f.seed << ",\n";
    os << "      \"detail\": \"" << json_escape(f.detail) << "\",\n";
    os << "      \"minimized_elements\": " << f.minimized_elements << ",\n";
    os << "      \"deck\": \"" << json_escape(f.deck) << "\",\n";
    os << "      \"minimized\": \"" << json_escape(f.minimized) << "\"\n";
    os << "    }";
  }
  os << (failures.empty() ? "]" : "\n  ]") << "\n}\n";
  return os.str();
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
