// SharedModelStore publish/acquire/release hammer (DESIGN.md §15.4).
//
// Eight threads — publishers republishing the model as fast as they can,
// readers acquiring, evaluating and releasing — beat on one store.  Run
// under TSan (the sanitizer CI matrix builds these tests with
// -DAWE_SANITIZE=thread) this pins the store's concurrency contract:
//   - every publish returns a UNIQUE generation, even when several
//     publishers race one swap (model_store.cpp numbers a generation at
//     the swap, under the store's mutex);
//   - generations observed through acquire(&gen) are monotone per reader
//     and the pinned model matches the pinned generation — the pin and
//     the generation number are one atomic step;
//   - a pinned model keeps evaluating bit-identically while any number of
//     publishes retire its generation underneath it;
//   - the store converges: when the dust settles, generation() equals the
//     highest generation any publisher minted.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "circuit/parser.hpp"
#include "core/awesymbolic.hpp"
#include "core/model_store.hpp"

namespace awe::core {
namespace {

constexpr const char* kDeck = R"(* store race deck
Vin in 0 1
R1 in a 1k
C1 a 0 10p
R2 a out 2k
C2 out 0 5p
.symbol R2
.symbol C2
.input vin
.output out
.end
)";

CompiledModel build_model() {
  std::istringstream in(kDeck);
  circuit::ParsedDeck deck = circuit::parse_deck(in);
  return CompiledModel::build(deck.netlist, deck.symbol_elements,
                              deck.input_source, deck.output_node, {.order = 2});
}

TEST(ModelStoreRace, PublishAcquireHammerHeap) {
  const CompiledModel model = build_model();
  SharedModelStore store("awe_store_race_heap");
  constexpr std::size_t kPublishers = 2;
  constexpr std::size_t kReaders = 6;
  constexpr std::size_t kPublishesEach = 40;

  store.publish(model);
  const std::vector<double> at = {2e3, 5e-12};
  const auto reference = model.moments_at(at);

  std::atomic<bool> stop{false};
  std::vector<std::vector<std::uint64_t>> minted(kPublishers);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kPublishers; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPublishesEach; ++i)
        minted[t].push_back(store.publish(model));
    });
  std::atomic<std::size_t> failures{0};
  for (std::size_t t = 0; t < kReaders; ++t)
    threads.emplace_back([&] {
      std::uint64_t last_gen = 0;
      while (!stop.load(std::memory_order_acquire)) {
        std::uint64_t gen = 0;
        const auto pinned = store.acquire(&gen);
        if (!pinned || gen < last_gen || pinned->moments_at(at) != reference)
          failures.fetch_add(1, std::memory_order_relaxed);
        last_gen = gen;
      }
    });
  for (std::size_t t = 0; t < kPublishers; ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  for (std::size_t t = kPublishers; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(failures.load(), 0u);

  // Initial publish + every minted generation: all distinct.
  std::set<std::uint64_t> gens{1};
  std::uint64_t highest = 1;
  for (const auto& per_thread : minted)
    for (const std::uint64_t g : per_thread) {
      EXPECT_TRUE(gens.insert(g).second) << "generation " << g << " minted twice";
      highest = std::max(highest, g);
    }
  EXPECT_EQ(gens.size(), 1 + kPublishers * kPublishesEach);
  EXPECT_EQ(store.generation(), highest);

  // No readers pinned: only the current generation's region stays alive.
  EXPECT_EQ(store.live_generations(), 1u);

  std::uint64_t final_gen = 0;
  const auto final_model = store.acquire(&final_gen);
  ASSERT_NE(final_model, nullptr);
  EXPECT_EQ(final_gen, highest);
  EXPECT_EQ(final_model->moments_at(at), reference);
}

}  // namespace
}  // namespace awe::core
