// Regression corpus replay.
//
// tests/corpus/ holds decks the fuzzer generated (and, for any historical
// failure, the shrinker minimized).  Every deck is replayed through the
// four-oracle cross-check on each test run: a corpus deck reporting a
// mismatch means a regression in one of the evaluation paths.  The corpus
// also re-asserts the writer round-trip on real committed artifacts.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/parser.hpp"
#include "circuit/writer.hpp"
#include "testing/compare.hpp"
#include "testing/oracles.hpp"

namespace awe::testing {
namespace {

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(AWE_CORPUS_DIR))
    if (entry.path().extension() == ".sp") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

TEST(FuzzCorpus, HasCommittedDecks) {
  const auto files = corpus_files();
  EXPECT_GE(files.size(), 10u) << "corpus at " << AWE_CORPUS_DIR << " is too small";
  // At least one deck must be a shrinker-minimized historical failure.
  EXPECT_TRUE(std::any_of(files.begin(), files.end(), [](const auto& p) {
    return p.filename().string().rfind("minimized_", 0) == 0;
  })) << "no minimized_*.sp fault artifact in the corpus";
}

TEST(FuzzCorpus, ReplayAllDecksThroughOracles) {
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    circuit::ParsedDeck deck;
    ASSERT_NO_THROW(deck = circuit::parse_deck_string(slurp(path)));
    const OracleResult r = run_oracles(deck);
    // Classification (ill-conditioned / singular) is acceptable; a genuine
    // mismatch is the regression this test exists to catch.
    EXPECT_NE(r.status, OracleStatus::kMismatch) << r.detail;
  }
}

TEST(FuzzCorpus, AllDecksRoundTripThroughWriter) {
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    const circuit::ParsedDeck deck = circuit::parse_deck_string(slurp(path));
    const circuit::ParsedDeck again =
        circuit::parse_deck_string(circuit::deck_to_string(deck));
    std::string why;
    EXPECT_TRUE(decks_identical(deck, again, &why)) << why;
  }
}

}  // namespace
}  // namespace awe::testing
