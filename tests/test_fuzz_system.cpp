// End-to-end checks of the differential fuzzing subsystem itself:
//   * a clean campaign finds zero mismatches across the oracle paths and
//     its JSON report is byte-deterministic run to run;
//   * with an injected fault in the sweep path, the fuzzer detects the
//     mismatch and the shrinker reduces it to a tiny reproducing deck
//     which still mismatches under the fault and agrees without it.
#include <gtest/gtest.h>

#include <string>

#include "circuit/parser.hpp"
#include "testing/fuzz.hpp"
#include "testing/shrink.hpp"

namespace awe::testing {
namespace {

TEST(FuzzSystem, CleanCampaignHasNoMismatches) {
  FuzzOptions opts;
  opts.seed = 42;
  opts.count = 150;
  const FuzzSummary sum = run_fuzz(opts);
  EXPECT_EQ(sum.count, opts.count);
  EXPECT_EQ(sum.mismatch, 0u) << sum.to_json();
  EXPECT_TRUE(sum.failures.empty());
  // The campaign must actually compare something, not classify everything
  // away: the overwhelming majority of well-posed decks agree outright.
  EXPECT_GE(sum.agree, opts.count * 8 / 10);
  EXPECT_GT(sum.moments_compared, 0u);
  EXPECT_LE(sum.max_mna_dim, 16u);
}

TEST(FuzzSystem, JsonReportIsDeterministic) {
  FuzzOptions opts;
  opts.seed = 42;
  opts.count = 60;
  const std::string a = run_fuzz(opts).to_json();
  const std::string b = run_fuzz(opts).to_json();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"seed\": 42"), std::string::npos) << a;
}

TEST(FuzzSystem, DifferentSeedsGenerateDifferentDecks) {
  GenOptions gen;
  gen.seed = case_seed(42, 0);
  const std::string a = generate_deck(gen).text;
  gen.seed = case_seed(42, 1);
  const std::string b = generate_deck(gen).text;
  EXPECT_NE(a, b);
}

TEST(FuzzSystem, InjectedFaultIsDetectedAndShrunk) {
  FuzzOptions opts;
  opts.seed = 42;
  opts.count = 40;
  opts.oracle.fault = FaultInjection::kPerturbSweepMoment0;
  const FuzzSummary sum = run_fuzz(opts);
  ASSERT_GT(sum.mismatch, 0u)
      << "a 2^-10 skew of the sweep path's m_0 must not survive the oracle";
  ASSERT_FALSE(sum.failures.empty());

  const FuzzFailure& f = sum.failures.front();
  ASSERT_FALSE(f.minimized.empty());
  EXPECT_LE(f.minimized_elements, 6u) << f.minimized;

  // The minimized deck must reproduce: mismatch with the fault injected...
  const circuit::ParsedDeck mini = circuit::parse_deck_string(f.minimized);
  OracleOptions with_fault = opts.oracle;
  EXPECT_EQ(run_oracles(mini, with_fault).status, OracleStatus::kMismatch)
      << f.minimized;
  // ...and no mismatch with the fault removed (the deck itself is fine).
  OracleOptions no_fault = opts.oracle;
  no_fault.fault = FaultInjection::kNone;
  EXPECT_NE(run_oracles(mini, no_fault).status, OracleStatus::kMismatch)
      << f.minimized;
}

TEST(FuzzSystem, ShrinkerRejectsPassingInput) {
  GenOptions gen;
  gen.seed = case_seed(42, 3);
  const GeneratedDeck d = generate_deck(gen);
  EXPECT_THROW(shrink_deck(d.parsed, [](const circuit::ParsedDeck&) { return false; }),
               std::invalid_argument);
}

TEST(FuzzSystem, ShrinkerReachesElementCountFixpoint) {
  // Predicate: deck keeps >= 2 elements.  The input source and one symbol
  // are pinned by the shrinker itself, so the ladder below must collapse
  // all the way down to exactly {vin, rsp2}.
  const circuit::ParsedDeck deck = circuit::parse_deck_string(
      "* ladder\n"
      "vin n1 0 1\n"
      "rsp1 n1 n2 1k\n"
      "rsp2 n2 0 1k\n"
      "rx1 n2 n3 1k\n"
      "cd1 n3 0 1p\n"
      ".symbol rsp2\n"
      ".input vin\n"
      ".output n2\n"
      ".end\n");
  const auto pred = [](const circuit::ParsedDeck& d) {
    return d.netlist.elements().size() >= 2;
  };
  const ShrinkResult r = shrink_deck(deck, pred);
  EXPECT_TRUE(pred(r.deck));
  EXPECT_EQ(r.deck.netlist.elements().size(), 2u) << r.text;
  EXPECT_TRUE(r.deck.netlist.find_element("vin"));
  EXPECT_TRUE(r.deck.netlist.find_element("rsp2"));
  // The minimized text re-parses and still satisfies the predicate.
  EXPECT_TRUE(pred(circuit::parse_deck_string(r.text)));
}

TEST(FuzzSystem, RunCaseReproducesCampaignMember) {
  FuzzOptions opts;
  opts.seed = 42;
  opts.count = 5;
  std::vector<OracleStatus> seen;
  opts.on_case = [&](const GeneratedDeck&, const OracleResult& r) {
    seen.push_back(r.status);
  };
  run_fuzz(opts);
  ASSERT_EQ(seen.size(), 5u);
  const OracleResult replay = run_case(case_seed(opts.seed, 2), opts);
  EXPECT_EQ(replay.status, seen[2]);
}

}  // namespace
}  // namespace awe::testing
