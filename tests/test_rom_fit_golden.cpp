// Bit-exact golden for the sweep engine's per-point ROM fit.
//
// tests/data/rom_fit_golden.txt pins, for with_rom sweeps of the 741
// (orders 1-4, with and without Padé order fallback), Fig. 1, every deck
// in tests/corpus and one fuzzer deck that needs the shifted refit, the
// exact bit patterns of each point's ROM order, poles, residues and DC
// gain together with its ladder stage and fail class.  Every fit rung of
// the degradation ladder (primary, order fallback, shifted refit,
// quarantine) is reached by some case, so a change anywhere in the Padé
// solve, root finding, residue expansion, stability filter or ladder shows
// up as a changed bit.
//
// File format, one case after another:
//   case <name> strict points=<n> max_order=<q> stages=<primary,...>
//   p <point> <record>        full record of point 0 and of the first 8
//                             points of each (non-primary stage, fail class)
//   b <first point> <digest>  FNV-1a 64 of the records of 64 points
// A record is "stage fail order dc_gain | poles | residues", each double as
// its 16 hex digit IEEE-754 bit pattern (NaN padding included).  Block
// digests stand in for the full records of the ~70k points, which would
// make a multi-megabyte file.  The 741 cases draw 4096 lognormal
// (sigma = 1) points, Fig. 1 1024 and the decks 256.
//
// The stages= counts are indexed by LadderStage's numeric code.  Every
// case is checked at 1 and 4 threads: sweep results are
// geometry-independent by contract.  On a mismatch the test writes the whole file it expected to read to
// rom_fit_golden.actual.txt in its working directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/parser.hpp"
#include "circuits/fig1_rc.hpp"
#include "circuits/opamp741.hpp"
#include "core/awesymbolic.hpp"
#include "engine/sweep.hpp"

namespace awe {
namespace {

constexpr std::size_t kBlock = 64;
constexpr std::size_t kShownPerOutcome = 8;
constexpr std::uint64_t kSeed = 0x5eed2026;

struct Case {
  std::string name;
  std::shared_ptr<const core::CompiledModel> model;
  std::vector<double> nominal;
  std::size_t points = 0;
};

std::string hex(double v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, std::bit_cast<std::uint64_t>(v));
  return buf;
}

std::string record(const sweep::SweepResult& r, std::size_t p) {
  const sweep::RomSamples& rs = *r.rom;
  std::string s = std::to_string(r.ladder_stage[p]) + " " + std::to_string(r.fail_class[p]) +
                  " " + std::to_string(rs.order[p]) + " " + hex(rs.dc_gain[p]) + " |";
  for (std::size_t j = 0; j < rs.max_order; ++j) {
    const auto z = rs.poles[p * rs.max_order + j];
    s += " " + hex(z.real()) + "," + hex(z.imag());
  }
  s += " |";
  for (std::size_t j = 0; j < rs.max_order; ++j) {
    const auto z = rs.residues[p * rs.max_order + j];
    s += " " + hex(z.real()) + "," + hex(z.imag());
  }
  return s;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The golden lines of one case's sweep.
std::vector<std::string> case_lines(const Case& c, const sweep::SweepResult& r) {
  std::array<std::size_t, 5> stages{};
  for (const std::uint8_t s : r.ladder_stage) ++stages[s];
  std::string head = "case " + c.name + " strict points=" + std::to_string(r.num_points) +
                     " max_order=" + std::to_string(r.rom->max_order) + " stages=";
  for (std::size_t i = 0; i < stages.size(); ++i)
    head += (i ? "," : "") + std::to_string(stages[i]);
  std::vector<std::string> lines{head};
  std::map<std::pair<std::uint8_t, std::uint8_t>, std::size_t> shown;  // (stage, fail) -> lines
  for (std::size_t b = 0; b < r.num_points; b += kBlock) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t p = b; p < std::min(b + kBlock, r.num_points); ++p) {
      const std::string rec = record(r, p);
      h = fnv1a(h, rec + "\n");
      if (p == 0 || (r.ladder_stage[p] != 0 &&
                     shown[{r.ladder_stage[p], r.fail_class[p]}]++ < kShownPerOutcome))
        lines.push_back("p " + std::to_string(p) + " " + rec);
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "b %zu %016" PRIx64, b, h);
    lines.emplace_back(buf);
  }
  return lines;
}

std::vector<double> symbol_values(const circuit::Netlist& nl,
                                  const std::vector<std::string>& symbols) {
  std::vector<double> v;
  for (const std::string& s : symbols) v.push_back(nl.elements()[*nl.find_element(s)].value);
  return v;
}

Case deck_case(std::string name, const circuit::ParsedDeck& deck, std::size_t order) {
  return {std::move(name),
          std::make_shared<const core::CompiledModel>(core::CompiledModel::build(
              deck.netlist, deck.symbol_elements, deck.input_source, deck.output_node,
              {.order = order})),
          symbol_values(deck.netlist, deck.symbol_elements), 256};
}

constexpr const char* kShiftedRefitDeck = R"(* awe_fuzz generated deck seed=9003794506755796011
rsp1 n1 0 11.501671149476929
rsp2 n2 n1 33241.009479083434
rsp3 n3 n1 49939.766697827239
rsp4 n4 n1 41.157003156449811
rsp5 n5 0 90809.090850922163
rsp6 n6 0 37230.718256832726
rb9 n1 nb7 4061.9193192838002
rb8 nb7 0 157.97127609341572
vin n1 0 1
rsn11 n2 ms10 993.97967065334501
vsn12 ms10 n4 0
fd13 ms10 0 vsn12 0.11115662279695716
gd14 n2 n4 n4 0 0.0050555588992201948
fd15 n1 nb7 vsn12 1.3737656263579194
rx16 n3 ms10 232.80079196238808
rl18 nb7 m17 646.54388225018465
ll19 m17 0 9.4772841259621875e-09
gd20 n4 n2 m17 0 0.0099977035012095341
.symbol rsp6 rsp1 rsp5
.input vin
.output n2
.end
)";

std::vector<Case> golden_cases() {
  std::vector<Case> cases;
  const auto amp = circuits::make_opamp741();
  const std::vector<std::string> amp_symbols{circuits::Opamp741Circuit::kSymbolGout,
                                             circuits::Opamp741Circuit::kSymbolCcomp};
  for (const bool fallback : {true, false})
    for (std::size_t q = 1; q <= 4; ++q) {
      core::ModelOptions mo;
      mo.order = q;
      mo.allow_order_fallback = fallback;
      cases.push_back({"741/q" + std::to_string(q) + (fallback ? "" : "/nofallback"),
                       std::make_shared<const core::CompiledModel>(core::CompiledModel::build(
                           amp.netlist, amp_symbols, circuits::Opamp741Circuit::kInput,
                           amp.out, mo)),
                       symbol_values(amp.netlist, amp_symbols), 4096});
    }

  const auto fig = circuits::make_fig1();
  const std::vector<std::string> fig_symbols{"g1", "g2", "c1", "c2"};
  cases.push_back({"fig1/q2",
                   std::make_shared<const core::CompiledModel>(core::CompiledModel::build(
                       fig.netlist, fig_symbols, circuits::Fig1Circuit::kInput, fig.v2,
                       {.order = 2})),
                   symbol_values(fig.netlist, fig_symbols), 1024});

  std::vector<std::filesystem::path> decks;
  for (const auto& e : std::filesystem::directory_iterator(AWE_CORPUS_DIR))
    if (e.path().extension() == ".sp") decks.push_back(e.path());
  std::sort(decks.begin(), decks.end());
  for (const auto& path : decks) {
    std::ifstream is(path);
    cases.push_back(
        deck_case("corpus/" + path.stem().string() + "/q2", circuit::parse_deck(is), 2));
  }
  // A fuzzer deck on which most order-3 fits need the shifted-moment refit.
  cases.push_back(deck_case("shifted/q3", circuit::parse_deck_string(kShiftedRefitDeck), 3));
  return cases;
}

sweep::SweepResult run_case(const Case& c, std::size_t threads) {
  std::vector<sweep::Distribution> d;
  for (const double v : c.nominal) d.push_back(sweep::Distribution::lognormal(v, 1.0));
  sweep::SweepOptions o;
  o.threads = threads;
  o.with_rom = true;
  return sweep::monte_carlo(*c.model, d, c.points, kSeed, o);
}

/// Golden file split into sections keyed by their "case" line's name.
std::map<std::string, std::vector<std::string>> read_golden(const std::filesystem::path& path) {
  std::map<std::string, std::vector<std::string>> sections;
  std::ifstream is(path);
  std::string line, key;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("case ", 0) == 0) {
      std::istringstream ls(line);
      std::string word;
      ls >> word >> key;
    }
    sections[key].push_back(line);
  }
  return sections;
}

TEST(RomFitGolden, SweepRomsMatchCommittedBits) {
  const auto golden = read_golden(std::filesystem::path(AWE_DATA_DIR) / "rom_fit_golden.txt");
  std::string actual =
      "# ROM fit golden: see tests/test_rom_fit_golden.cpp for the format.\n";
  std::size_t mismatched = 0;
  for (const Case& c : golden_cases()) {
    const auto it = golden.find(c.name);
    for (const std::size_t threads : {1, 4}) {
      SCOPED_TRACE(c.name + " threads=" + std::to_string(threads));
      const auto lines = case_lines(c, run_case(c, threads));
      if (threads == 1)
        for (const std::string& l : lines) actual += l + "\n";
      if (it == golden.end()) {
        ADD_FAILURE() << "case missing from the golden file";
        ++mismatched;
        break;
      }
      const auto& want = it->second;
      if (lines == want) continue;
      ++mismatched;
      ASSERT_FALSE(want.empty());
      EXPECT_EQ(lines.front(), want.front());
      for (std::size_t i = 0; i < std::min(lines.size(), want.size()); ++i)
        if (lines[i] != want[i]) {
          ADD_FAILURE() << "first differing line " << i << ":\n  got  " << lines[i]
                        << "\n  want " << want[i];
          break;
        }
      EXPECT_EQ(lines.size(), want.size());
    }
  }
  if (mismatched > 0) {
    std::ofstream("rom_fit_golden.actual.txt") << actual;
    ADD_FAILURE() << mismatched
                  << " case runs differ; rom_fit_golden.actual.txt holds the current bits";
  }
}

}  // namespace
}  // namespace awe
