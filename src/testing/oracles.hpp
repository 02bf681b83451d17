// Multi-oracle differential cross-checker.
//
// One deck, five independent evaluation paths for the same 2q transfer
// moments:
//   1. exact  — Cramer's-rule symbolic H(s,e), Maclaurin long division
//   2. awe    — numeric MNA moment recursion (sparse LU per deck)
//   3. strict — compiled interpreter, scalar strict mode
//   4. fast   — compiled interpreter, peephole-fused batch mode (kFast)
//   5. sweep  — the parallel sweep engine, strict mode, one point
//
// Comparison is condition-aware rather than binary: each moment m_k gets a
// cancellation factor c_k = scale_k / |m_k| against its natural magnitude
// scale_k = |m_0| * tau^k (tau the dominant time constant inferred from
// the moment ratios).  Tolerances widen with c_k; moments cancelled below
// the floor are skipped; disagreement on a moment whose c_k exceeds the
// classification limit is reported as kIllConditioned, not kMismatch.
// Genuine Padé instability is likewise classified, never a failure.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "circuit/parser.hpp"
#include "health/report.hpp"
#include "health/status.hpp"

namespace awe::testing {

enum class OracleStatus {
  kAgree,           ///< all five paths match under the tolerance policy
  kMismatch,        ///< a genuine disagreement — this is a bug somewhere
  kIllConditioned,  ///< disagreement explained by catastrophic cancellation
  kSingular,        ///< every path rejects the deck (det Y0 == 0 at DC)
};

const char* to_string(OracleStatus s);

/// Deliberate defects for testing the fuzzer's own detection/shrinking
/// machinery (a perturbed fused kernel is the canonical example).
enum class FaultInjection {
  kNone,
  kPerturbFastMoment0,  ///< scale the fast path's m_0 by (1 + 2^-10)
};

struct OracleOptions {
  std::size_t order = 2;        ///< Padé order q; 2q moments are compared
  double cross_tol = 1e-6;      ///< exact/awe/strict cross-path rel tol
  double fast_tol = 1e-9;       ///< fast vs strict (fused-kernel ULP drift)
  double cancel_skip = 1e9;     ///< skip moments cancelled below scale/|m| > this
  double ill_limit = 1e6;       ///< classify (not fail) beyond this c_k
  /// Absolute noise floor: moments smaller than zero_tol times the deck's
  /// natural magnitude bound (m0_ub * tau_ub^k) are skipped — they are
  /// roundoff where the true moment is (near-)zero, and no relative
  /// tolerance survives a comparison against an exact 0.
  double zero_tol = 1e-9;
  FaultInjection fault = FaultInjection::kNone;
  /// When non-empty, the compiled model is built THROUGH the persistent
  /// model cache (core::ModelCache) and then round-tripped save -> load,
  /// with the LOADED instance driving the strict/fast/sweep paths.  The
  /// serializer thereby becomes a sixth implicit oracle: any bug in the
  /// binary format or the cache surfaces as a cross-path mismatch.
  std::string cache_dir;
  /// Run the reverse-mode gradient program as a SEVENTH oracle: the deck is
  /// rebuilt with ModelOptions::with_gradients and every d(m_k)/d(value) is
  /// cross-checked three ways — reverse-mode vs central finite differences
  /// of the strict path, reverse-mode vs the adjoint numeric
  /// moment_sensitivities, and the gradient program's embedded primal
  /// moments vs the forward program BIT-EXACTLY.  Non-differentiable
  /// symbol elements (per the adjoint's `differentiable` mask) and
  /// cancellation-dominated gradients are SKIPPED, never failed; a case
  /// whose classification already isn't kAgree skips the oracle entirely
  /// (OracleResult::gradients_ran stays false).
  bool gradients = false;
};

struct OracleResult {
  OracleStatus status = OracleStatus::kAgree;
  std::string detail;  ///< human-readable reason for non-agree statuses
  /// Stable signature of HOW the paths disagreed ("strict vs fast",
  /// "awe failed [hankel-ill-conditioned]", ...) — the shrinker preserves
  /// this so minimization cannot morph one finding into a structurally
  /// different one.  Path-failure signatures carry the FailClass code so a
  /// shrink cannot swap one failure class for another either.
  std::string mismatch_kind;
  /// Per-class failure accounting over the five paths (DESIGN.md §11).
  health::HealthReport health;
  /// Per-path moments (empty when that path failed) and failure messages.
  std::vector<double> exact, awe, strict_c, fast, sweep;
  std::string exact_error, awe_error, compiled_error;
  /// Seventh-oracle outcome (only with OracleOptions::gradients):
  /// gradients_ran is false when the case was skipped wholesale (non-agree
  /// classification, gradient build failure — gradients_error says why);
  /// gradient_checks counts (symbol, moment) pairs compared and
  /// gradient_skips the non-differentiable / cancellation-dominated pairs.
  bool gradients_ran = false;
  std::string gradients_error;
  std::size_t gradient_checks = 0;
  std::size_t gradient_skips = 0;
  double max_rel_err = 0.0;       ///< worst pairwise rel error over compared moments
  double worst_cancellation = 1.0;///< max c_k observed
  bool pade_ok = true;            ///< classification only, never a failure
  std::size_t moments_compared = 0;
  std::size_t moments_skipped = 0;  ///< cancelled past OracleOptions::cancel_skip
};

/// Run all five oracles on a parsed deck carrying .symbol/.input/.output
/// directives.  Never throws on well-posed decks: failures are encoded in
/// the status.  Throws std::invalid_argument for decks missing directives.
OracleResult run_oracles(const circuit::ParsedDeck& deck, const OracleOptions& opts = {});

}  // namespace awe::testing
