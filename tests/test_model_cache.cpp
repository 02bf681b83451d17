// Persistent compiled-model cache + serializer (DESIGN.md §10).
//
// What must hold, and what these tests pin down:
//   - save -> load -> save is BYTE-identical (the cache-determinism
//     invariant the CI job also checks across processes);
//   - a cached (loaded) model is bit-identical to a cold build, through
//     both the scalar and the batched interpreter, over the committed
//     corpus;
//   - the cache key covers exactly what the build output depends on —
//     stable across calls, insensitive to symbolic/input values,
//     sensitive to topology, numeric values and ModelOptions;
//   - corrupt or foreign cache entries degrade to a miss, never an error;
//   - the parallel build pipeline (threads > 1) produces the same bytes
//     as the serial one;
//   - port_admittance_moments_inplace leaves the netlist untouched on
//     every exit path (the mutate-and-restore satellite).
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "circuit/parser.hpp"
#include "circuit/writer.hpp"
#include "core/model_cache.hpp"
#include "engine/thread_pool.hpp"
#include "health/failpoints.hpp"
#include "partition/block_store.hpp"
#include "partition/port_moments.hpp"

namespace awe::core {
namespace {

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(AWE_CORPUS_DIR))
    if (entry.path().extension() == ".sp") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  return files;
}

circuit::ParsedDeck load_deck(const std::filesystem::path& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return circuit::parse_deck_string(os.str());
}

/// Corpus decks whose model builds (some are deliberately singular — those
/// regression-test the oracles, not the cache).
bool buildable(const circuit::ParsedDeck& deck, const ModelOptions& opts = {}) {
  try {
    (void)CompiledModel::build(deck.netlist, deck.symbol_elements, deck.input_source,
                               deck.output_node, opts);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

std::string serialize(const CompiledModel& model) {
  std::ostringstream os;
  model.save(os);
  return os.str();
}

/// Element values of the model's symbols, read back from the deck (same
/// remap-by-name convention the oracle harness uses).
std::vector<double> symbol_values(const circuit::ParsedDeck& deck,
                                  const CompiledModel& model) {
  std::vector<double> values;
  for (const std::string& name : model.symbol_names())
    values.push_back(deck.netlist.elements()[*deck.netlist.find_element(name)].value);
  return values;
}

std::vector<double> batch_moments(const CompiledModel& model,
                                  std::span<const double> values) {
  auto ws = model.make_batch_workspace(1);
  std::vector<double> out(model.moment_count(), 0.0);
  unsigned char ok = 1;
  model.moments_batch(values, 1, 1, ws, out, 1, {&ok, 1});
  EXPECT_EQ(ok, 1);
  return out;
}

/// Fresh empty directory under the test temp root.
std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("model_cache_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A small deck with one reciprocal (R) and one direct (C) symbol.
circuit::ParsedDeck rc_deck() {
  return circuit::parse_deck_string(
      "* rc\n"
      "r1 in mid 1k\n"
      "c1 mid 0 2p\n"
      "r2 mid out 500\n"
      "c2 out 0 1p\n"
      "vin in 0 1\n"
      ".symbol r1 c2\n"
      ".input vin\n"
      ".output out\n"
      ".end\n");
}

// -- serializer --------------------------------------------------------

TEST(ModelSerializer, SaveLoadResaveIsByteIdenticalOverCorpus) {
  std::size_t checked = 0;
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    const auto deck = load_deck(path);
    if (!buildable(deck)) continue;
    const auto model = CompiledModel::build(deck.netlist, deck.symbol_elements,
                                            deck.input_source, deck.output_node);
    const std::string first = serialize(model);
    std::istringstream in(first);
    const CompiledModel loaded = CompiledModel::load(in);
    EXPECT_EQ(first, serialize(loaded));
    ++checked;
  }
  EXPECT_GE(checked, 5u) << "too few buildable corpus decks to be meaningful";
}

TEST(ModelSerializer, LoadedModelIsFullyFunctionalAndBitIdentical) {
  const auto deck = rc_deck();
  ModelOptions opts;
  opts.with_gradients = true;
  const auto cold = CompiledModel::build(deck.netlist, deck.symbol_elements,
                                         deck.input_source, deck.output_node, opts);
  std::istringstream in(serialize(cold));
  const CompiledModel loaded = CompiledModel::load(in);

  EXPECT_EQ(loaded.order(), cold.order());
  EXPECT_EQ(loaded.symbol_names(), cold.symbol_names());
  EXPECT_EQ(loaded.instruction_count(), cold.instruction_count());
  EXPECT_EQ(loaded.register_count(), cold.register_count());
  EXPECT_TRUE(loaded.has_gradients());

  const auto values = symbol_values(deck, cold);
  const auto mc = cold.moments_at(values);
  const auto ml = loaded.moments_at(values);
  ASSERT_EQ(mc.size(), ml.size());
  for (std::size_t k = 0; k < mc.size(); ++k) EXPECT_EQ(mc[k], ml[k]) << "moment " << k;
  EXPECT_EQ(batch_moments(cold, values), batch_moments(loaded, values));

  const auto gc = cold.moments_and_gradients(values);
  const auto gl = loaded.moments_and_gradients(values);
  EXPECT_EQ(gc.moments, gl.moments);
  EXPECT_EQ(gc.dm, gl.dm);

  // Closed forms survive the round trip too (they read the polynomials).
  EXPECT_EQ(cold.dc_gain_expression().to_string(),
            loaded.dc_gain_expression().to_string());
  EXPECT_NO_THROW((void)loaded.evaluate(values));
}

TEST(ModelSerializer, RejectsCorruptInput) {
  std::istringstream empty("");
  EXPECT_THROW((void)CompiledModel::load(empty), std::runtime_error);
  std::istringstream garbage("AWEMgarbage-that-is-not-a-model");
  EXPECT_THROW((void)CompiledModel::load(garbage), std::runtime_error);
  std::istringstream bad_magic("NOPE");
  EXPECT_THROW((void)CompiledModel::load(bad_magic), std::runtime_error);

  // Truncation anywhere in a valid stream must throw, never crash.
  const auto deck = rc_deck();
  const std::string bytes = serialize(CompiledModel::build(
      deck.netlist, deck.symbol_elements, deck.input_source, deck.output_node));
  for (std::size_t cut : {std::size_t{5}, bytes.size() / 2, bytes.size() - 1}) {
    std::istringstream truncated(bytes.substr(0, cut));
    EXPECT_THROW((void)CompiledModel::load(truncated), std::runtime_error);
  }
}

// -- cache key ---------------------------------------------------------

TEST(ModelCacheKey, StableAndWellFormed) {
  const auto deck = rc_deck();
  const circuit::NodeId out[] = {*deck.netlist.find_node(deck.output_node)};
  const auto key = [&](const circuit::Netlist& n) {
    return model_cache_key(n, deck.symbol_elements, deck.input_source, out, {});
  };
  const std::string k = key(deck.netlist);
  EXPECT_EQ(k.size(), 32u);
  EXPECT_EQ(k.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(k, key(deck.netlist));  // deterministic
}

TEST(ModelCacheKey, InsensitiveToSymbolicAndInputValues) {
  const auto deck = rc_deck();
  const circuit::NodeId out[] = {*deck.netlist.find_node(deck.output_node)};
  const std::string base =
      model_cache_key(deck.netlist, deck.symbol_elements, deck.input_source, out, {});

  // Symbolic element values are runtime inputs; the input source value is
  // unit-normalized.  Editing them must still hit the same entry.
  circuit::Netlist edited = deck.netlist;
  edited.set_value("r1", 47e3);
  edited.set_value("c2", 5e-12);
  edited.set_value("vin", 3.3);
  EXPECT_EQ(base, model_cache_key(edited, deck.symbol_elements, deck.input_source, out, {}));
}

TEST(ModelCacheKey, SensitiveToEverythingElse) {
  const auto deck = rc_deck();
  const circuit::NodeId out[] = {*deck.netlist.find_node(deck.output_node)};
  const std::string base =
      model_cache_key(deck.netlist, deck.symbol_elements, deck.input_source, out, {});

  // Non-symbolic value (it is folded into the program constants).
  circuit::Netlist edited = deck.netlist;
  edited.set_value("r2", 501.0);
  EXPECT_NE(base,
            model_cache_key(edited, deck.symbol_elements, deck.input_source, out, {}));

  // Topology.
  circuit::Netlist extended = deck.netlist;
  extended.add_capacitor("cx", extended.node("mid"), circuit::kGround, 1e-15);
  EXPECT_NE(base,
            model_cache_key(extended, deck.symbol_elements, deck.input_source, out, {}));

  // Symbol set and symbol ORDER (the order fixes the input layout).
  const std::vector<std::string> fewer = {"r1"};
  const std::vector<std::string> swapped = {"c2", "r1"};
  EXPECT_NE(base, model_cache_key(deck.netlist, fewer, deck.input_source, out, {}));
  EXPECT_NE(base, model_cache_key(deck.netlist, swapped, deck.input_source, out, {}));

  // Output node and ModelOptions.
  const circuit::NodeId mid[] = {*deck.netlist.find_node("mid")};
  EXPECT_NE(base,
            model_cache_key(deck.netlist, deck.symbol_elements, deck.input_source, mid, {}));
  EXPECT_NE(base, model_cache_key(deck.netlist, deck.symbol_elements, deck.input_source,
                                  out, {.order = 3}));
  EXPECT_NE(base, model_cache_key(deck.netlist, deck.symbol_elements, deck.input_source,
                                  out, {.with_gradients = true}));
}

// -- persistent cache --------------------------------------------------

TEST(ModelCache, CorpusColdVsCachedBitIdenticalScalarAndBatch) {
  const auto dir = fresh_dir("corpus");
  BuildOptions with_cache;
  with_cache.cache_dir = dir.string();
  std::size_t checked = 0;
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    const auto deck = load_deck(path);
    if (!buildable(deck)) continue;
    const auto cold = CompiledModel::build(deck.netlist, deck.symbol_elements,
                                           deck.input_source, deck.output_node);
    // First cache-routed build populates the entry, second one loads it.
    (void)CompiledModel::build(deck.netlist, deck.symbol_elements, deck.input_source,
                               deck.output_node, {}, with_cache);
    const auto cached = CompiledModel::build(deck.netlist, deck.symbol_elements,
                                             deck.input_source, deck.output_node, {},
                                             with_cache);
    EXPECT_EQ(serialize(cold), serialize(cached));
    const auto values = symbol_values(deck, cold);
    EXPECT_EQ(cold.moments_at(values), cached.moments_at(values));
    EXPECT_EQ(batch_moments(cold, values), batch_moments(cached, values));
    ++checked;
  }
  EXPECT_GE(checked, 5u);
  EXPECT_FALSE(std::filesystem::is_empty(dir));
}

TEST(ModelCache, CorruptEntryFallsBackToColdBuild) {
  const auto dir = fresh_dir("corrupt");
  const auto deck = rc_deck();
  const circuit::NodeId out[] = {*deck.netlist.find_node(deck.output_node)};
  const std::string key =
      model_cache_key(deck.netlist, deck.symbol_elements, deck.input_source, out, {});

  // Plant a corrupt entry under the exact key the build will probe.
  {
    std::ofstream bad(ModelCache::entry_path(dir.string(), key), std::ios::binary);
    bad << "AWEM this is not a model";
  }
  BuildOptions with_cache;
  with_cache.cache_dir = dir.string();
  const auto model = CompiledModel::build(deck.netlist, deck.symbol_elements,
                                          deck.input_source, deck.output_node, {},
                                          with_cache);
  // The rebuild repaired the entry: a fresh load now succeeds.
  const auto repaired = ModelCache::load_file(ModelCache::entry_path(dir.string(), key));
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(serialize(model), serialize(*repaired));
}

/// In a forked child: write 64 KiB through part::write_entry under a 4 KiB
/// file size limit.  0 when the write threw and left neither the entry nor
/// a "<entry>.tmp.<pid>.<n>" file in `dir`.
int write_past_size_limit(const std::filesystem::path& dir) {
  std::signal(SIGXFSZ, SIG_IGN);
  const rlimit limit{4096, 4096};
  if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) return 2;
  const std::string entry = (dir / "entry.awemodel").string();
  bool threw = false;
  try {
    part::write_entry(entry, std::string(64 * 1024, 'x'),
                      health::failpoints::sites::kCacheStoreCrash);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  std::size_t left = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    left += e.path().filename().string().find(".tmp.") != std::string::npos;
  return threw && left == 0 && !std::filesystem::exists(entry) ? 0 : 1;
}

// A write that fails after the temp file is open (here the file size
// limit cuts it at 4 KiB) throws and leaves no temp file behind.  The
// limit is set in a forked child so it cannot reach the rest of the suite.
TEST(ModelCache, FailedWriteEntryRemovesItsTempFile) {
  const auto dir = fresh_dir("write_fail");
  EXPECT_EXIT(std::_Exit(write_past_size_limit(dir)), ::testing::ExitedWithCode(0), "");
}

TEST(ModelCache, LruHitsEvictionsAndStats) {
  const auto dir = fresh_dir("lru");
  ModelCache cache(dir.string(), /*max_entries=*/2);
  const auto deck = rc_deck();

  const auto a = cache.get_or_build(deck.netlist, deck.symbol_elements, deck.input_source,
                                    deck.output_node);
  const auto b = cache.get_or_build(deck.netlist, deck.symbol_elements, deck.input_source,
                                    deck.output_node);
  EXPECT_EQ(a.get(), b.get()) << "memory hit must return the same instance";
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().memory_hits, 1u);

  // Two more distinct keys overflow the 2-entry LRU.
  (void)cache.get_or_build(deck.netlist, deck.symbol_elements, deck.input_source,
                           deck.output_node, {.order = 3});
  (void)cache.get_or_build(deck.netlist, deck.symbol_elements, deck.input_source,
                           deck.output_node, {.order = 4});
  EXPECT_EQ(cache.memory_entries(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  // The evicted entry comes back from DISK, not a rebuild.
  (void)cache.get_or_build(deck.netlist, deck.symbol_elements, deck.input_source,
                           deck.output_node);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(ModelCache, ConcurrentGetOrBuildIsCoherent) {
  const auto dir = fresh_dir("concurrent");
  ModelCache cache(dir.string());
  const auto deck = rc_deck();

  std::vector<std::shared_ptr<const CompiledModel>> got(8);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < got.size(); ++t)
    workers.emplace_back([&, t] {
      got[t] = cache.get_or_build(deck.netlist, deck.symbol_elements, deck.input_source,
                                  deck.output_node);
    });
  for (auto& w : workers) w.join();

  const std::string bytes = serialize(*got[0]);
  for (const auto& m : got) {
    ASSERT_TRUE(m);
    EXPECT_EQ(bytes, serialize(*m));
  }
  const auto s = cache.stats();
  EXPECT_GE(s.misses, 1u);
  EXPECT_EQ(s.misses + s.memory_hits + s.disk_hits, got.size());
}

// -- parallel build pipeline -------------------------------------------

TEST(ParallelBuild, ThreadsProduceByteIdenticalModels) {
  for (const auto& path : corpus_files()) {
    const auto deck = load_deck(path);
    if (!buildable(deck)) continue;
    SCOPED_TRACE(path.filename().string());
    const auto serial = CompiledModel::build(deck.netlist, deck.symbol_elements,
                                             deck.input_source, deck.output_node);
    BuildOptions four_threads;
    four_threads.threads = 4;
    const auto parallel = CompiledModel::build(deck.netlist, deck.symbol_elements,
                                               deck.input_source, deck.output_node, {},
                                               four_threads);
    EXPECT_EQ(serialize(serial), serialize(parallel));
  }
}

TEST(ParallelBuild, SharedPoolAndMultiOutputMatchSerial) {
  const auto deck = rc_deck();
  sweep::ThreadPool pool(3);
  BuildOptions shared_pool;
  shared_pool.pool = &pool;
  const auto serial = CompiledModel::build(deck.netlist, deck.symbol_elements,
                                           deck.input_source, deck.output_node);
  const auto pooled = CompiledModel::build(deck.netlist, deck.symbol_elements,
                                           deck.input_source, deck.output_node, {},
                                           shared_pool);
  EXPECT_EQ(serialize(serial), serialize(pooled));

  const std::vector<circuit::NodeId> outs = {*deck.netlist.find_node("mid"),
                                             *deck.netlist.find_node("out")};
  const auto ms = MultiOutputModel::build(deck.netlist, deck.symbol_elements,
                                          deck.input_source, outs);
  const auto mp = MultiOutputModel::build(deck.netlist, deck.symbol_elements,
                                          deck.input_source, outs, {}, shared_pool);
  const auto values = [&] {
    std::vector<double> v;
    for (const auto& name : ms.symbol_names())
      v.push_back(deck.netlist.elements()[*deck.netlist.find_element(name)].value);
    return v;
  }();
  for (std::size_t o = 0; o < ms.output_count(); ++o)
    EXPECT_EQ(ms.moments_at(o, values), mp.moments_at(o, values)) << "output " << o;
}

// -- mutate-and-restore extraction (the deep-copy fix) ------------------

TEST(PortMomentsInplace, RestoresNetlistOnSuccessAndThrow) {
  auto deck = rc_deck();
  const std::string before = circuit::deck_to_string(deck);
  const std::vector<circuit::NodeId> ports = {*deck.netlist.find_node("mid"),
                                              *deck.netlist.find_node("out")};

  const auto yk = part::port_admittance_moments_inplace(deck.netlist, ports, 4);
  EXPECT_EQ(yk.size(), 4u);
  EXPECT_EQ(circuit::deck_to_string(deck), before)
      << "success path must restore elements and source values";

  // A port in parallel with the (zeroed) input source makes the grounded
  // DC matrix singular: the throw path must restore just as cleanly.
  const std::vector<circuit::NodeId> bad_ports = {*deck.netlist.find_node("in")};
  EXPECT_THROW((void)part::port_admittance_moments_inplace(deck.netlist, bad_ports, 4),
               std::runtime_error);
  EXPECT_EQ(circuit::deck_to_string(deck), before)
      << "throw path must restore elements and source values";

  // And the extraction itself is pool-invariant (bit-identical columns).
  sweep::ThreadPool pool(4);
  auto copy = deck.netlist;
  const auto yk_par = part::port_admittance_moments_inplace(copy, ports, 4, &pool);
  EXPECT_EQ(yk, yk_par);
}

}  // namespace
}  // namespace awe::core
