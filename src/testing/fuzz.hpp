// Differential fuzzing campaign driver.
//
// Generates `count` decks from a splitmix64 seed stream, runs the
// five-oracle cross-check on each, shrinks every mismatch to a minimal
// reproducing deck, and aggregates deterministic statistics.  The JSON
// report contains no timestamps, pointers or locale-dependent formatting:
// the same (options, binary) always produce byte-identical output, which
// the CI smoke job asserts by running the campaign twice and diffing.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "testing/netlist_gen.hpp"
#include "testing/oracles.hpp"

namespace awe::testing {

struct FuzzOptions {
  std::uint64_t seed = 42;
  std::size_t count = 100;
  GenOptions gen;        ///< gen.seed is overwritten per case
  OracleOptions oracle;
  bool shrink = true;    ///< minimize mismatching decks
  /// Observer invoked once per case (corpus emission, progress printing).
  /// Not part of the statistics; leaving it empty changes nothing.
  std::function<void(const GeneratedDeck&, const OracleResult&)> on_case;
};

struct FuzzFailure {
  std::uint64_t seed = 0;          ///< case seed (regenerates the deck)
  std::string detail;              ///< oracle mismatch description
  std::string deck;                ///< original deck text
  std::string minimized;           ///< shrunk deck text ("" when !shrink)
  std::size_t minimized_elements = 0;
};

struct FuzzSummary {
  std::uint64_t seed = 0;  ///< campaign seed the case stream derives from
  std::size_t count = 0;
  std::size_t agree = 0;
  std::size_t mismatch = 0;
  std::size_t ill_conditioned = 0;
  std::size_t singular = 0;
  std::size_t pade_flagged = 0;      ///< Padé instability classifications
  std::size_t gradients_checked = 0; ///< cases the gradient (7th) oracle ran on
  std::size_t gradients_skipped = 0; ///< gradients requested but case skipped
  std::size_t moments_compared = 0;
  std::size_t moments_skipped = 0;
  std::size_t elements_generated = 0;
  std::size_t max_mna_dim = 0;
  double worst_rel_err = 0.0;        ///< over agreeing cases
  std::uint64_t worst_seed = 0;
  /// Merged per-class failure accounting over every case's oracle paths,
  /// with the process-global failpoint/cache counters folded in.
  health::HealthReport health;
  std::vector<FuzzFailure> failures;

  /// Deterministic JSON (fixed key order, doubles in the exact "%.17g"
  /// form of json::append_exact).
  std::string to_json() const;
};

FuzzSummary run_fuzz(const FuzzOptions& opts);

/// Replay one case seed of a campaign (used to reproduce a failure from
/// the JSON report alone).
OracleResult run_case(std::uint64_t seed, const FuzzOptions& opts);

}  // namespace awe::testing
