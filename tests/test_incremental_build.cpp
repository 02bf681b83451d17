// Incremental partition-level rebuild (DESIGN.md §13).
//
// The hard correctness bar: a rebuild that reuses cached per-cell moment
// blocks must be BYTE-identical to a cold build of the edited netlist —
// also after a torn block store quarantines and rebuilds.  Anything
// weaker would let the incremental path drift from the cold path
// silently, and every downstream oracle compares models by bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>

#include "circuit/parser.hpp"
#include "core/awesymbolic.hpp"
#include "health/failpoints.hpp"
#include "health/report.hpp"
#include "partition/partitioner.hpp"

namespace awe::core {
namespace {

namespace fp = health::failpoints;

/// Every test must leave the process with no armed sites.
struct FailpointGuard {
  FailpointGuard() { fp::reset(); }
  ~FailpointGuard() { fp::reset(); }
};

std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("incremental_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Numeric partition with three independent components (three cells):
/// {r1,c1} via internal node a, {r2,c2,r3} via internal node b, and {c3}
/// spanning only cut nodes.  Editing c1 dirties exactly the first cell.
circuit::ParsedDeck inc_deck() {
  return circuit::parse_deck_string(
      "* incremental fixture\n"
      "vin in 0 1\n"
      "r1 in a 1k\n"
      "c1 a 0 10p\n"
      "r2 in b 2k\n"
      "c2 b 0 20p\n"
      "r3 b out 3k\n"
      "c3 out 0 5p\n"
      "rsym out 0 10k\n"
      ".symbol rsym\n"
      ".input vin\n"
      ".output out\n");
}

std::string serialize(const CompiledModel& model) {
  std::ostringstream os;
  model.save(os);
  return os.str();
}

std::string build_bytes(const circuit::ParsedDeck& deck, const BuildOptions& bo) {
  const CompiledModel model = CompiledModel::build(
      deck.netlist, deck.symbol_elements, deck.input_source, deck.output_node, {}, bo);
  return serialize(model);
}

struct BlockCounters {
  std::uint64_t reused, built, quarantined;
};

BlockCounters counters_now() {
  auto& g = health::global_counters();
  return {g.partition_blocks_reused.load(), g.partition_blocks_built.load(),
          g.partition_blocks_quarantined.load()};
}

BlockCounters delta(const BlockCounters& before) {
  const BlockCounters now = counters_now();
  return {now.reused - before.reused, now.built - before.built,
          now.quarantined - before.quarantined};
}

TEST(IncrementalBuild, BitIdenticalToCold) {
  auto deck = inc_deck();
  BuildOptions inc;
  inc.partition_block_dir = fresh_dir("bits").string();
  // Warm the block store with the pristine deck, then edit one element.
  (void)build_bytes(deck, inc);

  circuit::ParsedDeck edited = deck;
  edited.netlist.set_value("c1", 12e-12);
  const std::string cold_bytes = build_bytes(edited, {});
  EXPECT_EQ(build_bytes(edited, inc), cold_bytes);
}

TEST(IncrementalBuild, ReusesCleanCellsRebuildsDirtyOne) {
  auto deck = inc_deck();
  const auto blocks = fresh_dir("counters");
  BuildOptions inc;
  inc.partition_block_dir = blocks.string();

  // Cold store: every cell is built, nothing reused.
  auto before = counters_now();
  (void)build_bytes(deck, inc);
  const BlockCounters first = delta(before);
  EXPECT_EQ(first.reused, 0u);
  EXPECT_EQ(first.built, 3u);  // three components -> three cells
  EXPECT_EQ(first.quarantined, 0u);

  // Unedited rebuild: every block reloads.
  before = counters_now();
  (void)build_bytes(deck, inc);
  const BlockCounters warm = delta(before);
  EXPECT_EQ(warm.reused, first.built);
  EXPECT_EQ(warm.built, 0u);

  // One-element edit: exactly that cell rebuilds.
  deck.netlist.set_value("c1", 12e-12);
  before = counters_now();
  (void)build_bytes(deck, inc);
  const BlockCounters edit = delta(before);
  EXPECT_EQ(edit.reused, first.built - 1);
  EXPECT_EQ(edit.built, 1u);
}

TEST(IncrementalBuild, TornBlockIsQuarantinedAndRebuilt) {
  FailpointGuard guard;
  auto deck = inc_deck();
  const auto blocks = fresh_dir("torn");
  BuildOptions inc;
  inc.partition_block_dir = blocks.string();
  BuildOptions cold;
  const std::string cold_bytes = build_bytes(deck, cold);

  // First store tears its first block mid-write (no tmp+rename), exactly
  // like a builder that died at the wrong moment.
  fp::arm(fp::sites::kPartitionBlock, "once");
  EXPECT_EQ(build_bytes(deck, inc), cold_bytes);  // the build itself is unharmed
  fp::reset();

  // The reload must detect the torn block, quarantine it to <key>.bad,
  // rebuild it, and still produce cold-identical bytes.  The in-process
  // plan memo would serve all three clean blocks from memory; drop it so
  // this build probes the disk the way a fresh process (or CI's separate
  // rebuild step) would.
  part::clear_plan_cache();
  const auto before = counters_now();
  EXPECT_EQ(build_bytes(deck, inc), cold_bytes);
  const BlockCounters d = delta(before);
  EXPECT_EQ(d.quarantined, 1u);
  EXPECT_EQ(d.built, 1u);
  EXPECT_EQ(d.reused, 2u);

  std::size_t bad = 0;
  for (const auto& entry : std::filesystem::directory_iterator(blocks))
    if (entry.path().extension() == ".bad") ++bad;
  EXPECT_EQ(bad, 1u);

  // Quarantine is not re-probed: the next rebuild reloads all three.
  const auto before2 = counters_now();
  EXPECT_EQ(build_bytes(deck, inc), cold_bytes);
  const BlockCounters d2 = delta(before2);
  EXPECT_EQ(d2.quarantined, 0u);
  EXPECT_EQ(d2.reused, 3u);
}

}  // namespace
}  // namespace awe::core
