// Model format v5 + zero-copy open + shared hot-swap store (DESIGN.md §15).
//
// What must hold, and what these tests pin down:
//   - pack -> load -> pack is BYTE-identical, whether the reload went
//     through the stream loader or mmap (the format's fixed-point
//     property), and a fresh build saves to the committed v5 goldens byte
//     for byte;
//   - a view-backed model (heap / mmap(MAP_PRIVATE)) is
//     BIT-identical to the owned freshly built model — moments AND
//     gradients, scalar AND swept across thread counts;
//   - pre-v5 files fail closed: the committed v2/v3/v4 fixtures fail with
//     kModelFormat and the documented error text on the stream path, and
//     the cache quarantines and rebuilds them; truncated and bit-flipped
//     v5 inputs fail with their documented texts too;
//   - the endianness/alignment guard rejects a misaligned region with
//     FailClass::kModelFormat, not UB;
//   - the cache's mapped open quarantines damage exactly like the stream
//     path (miss + <entry>.bad, then a rebuild stores a fresh entry);
//   - SharedModelStore publishes atomically: a sweep pinned on generation
//     N completes bit-identically while N+1..N+k publish underneath it,
//     and a failed publish leaves the store on its old generation without
//     consuming a generation number.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "circuit/parser.hpp"
#include "core/awesymbolic.hpp"
#include "core/model_blob.hpp"
#include "core/model_cache.hpp"
#include "core/model_store.hpp"
#include "engine/sweep.hpp"
#include "health/status.hpp"
#include "partition/block_store.hpp"

namespace awe::core {
namespace {

namespace fs = std::filesystem;

constexpr const char* kDeck = R"(* v4 test deck
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

CompiledModel build_model(bool gradients) {
  auto deck = circuit::parse_deck_string(kDeck);
  ModelOptions opts;
  opts.order = 2;
  opts.with_gradients = gradients;
  return CompiledModel::build(deck.netlist, deck.symbol_elements, deck.input_source,
                              *deck.netlist.find_node(deck.output_node), opts);
}

std::string serialize(const CompiledModel& model) {
  std::ostringstream os;
  model.save(os);
  return os.str();
}

CompiledModel stream_load(const std::string& bytes) {
  std::istringstream is(bytes);
  return CompiledModel::load(is);
}

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("awe_v4_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

void write_file(const fs::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<double> nominal_values(const CompiledModel& model) {
  // Matches the deck above: R2 = 2k, C2 = 5p.
  EXPECT_EQ(model.symbol_count(), 2u);
  return {2e3, 5e-12};
}

// -- format fixed point ---------------------------------------------------

TEST(ModelV4, PackIsVersion5AndAligned) {
  const std::string blob = serialize(build_model(false));
  ASSERT_GE(blob.size(), sizeof(v5::Header));
  EXPECT_EQ(blob.compare(0, 4, "AWEM"), 0);
  std::uint32_t version = 0;
  std::memcpy(&version, blob.data() + 4, 4);
  EXPECT_EQ(version, 5u);
  EXPECT_EQ(blob.size() % 64, 0u) << "v5 blobs are padded to the 64-byte alignment";
}

TEST(ModelV4, RepackByteDeterminismAcrossBackings) {
  TempDir tmp;
  const std::string blob = serialize(build_model(true));

  // Stream (heap-owned) reload.
  EXPECT_EQ(serialize(stream_load(blob)), blob);

  // mmap reload.
  const fs::path file = tmp.path / "m.awemodel";
  write_file(file, blob);
  const CompiledModel mapped = CompiledModel::map_file(file);
  EXPECT_TRUE(mapped.view_backed());
  EXPECT_EQ(serialize(mapped), blob);
}

TEST(ModelV4, ChecksumCoversPayload) {
  std::string blob = serialize(build_model(false));
  // make_heap_blob gives the 64-byte-aligned region ModelView requires; a
  // raw std::string buffer is only coincidentally aligned.
  const auto good = make_heap_blob(blob);
  EXPECT_TRUE(ModelView::open(good->bytes()).verify_checksum());
  blob[blob.size() - 70] ^= 0x01;  // damage inside the payload
  const auto bad = make_heap_blob(blob);
  EXPECT_FALSE(ModelView::open(bad->bytes()).verify_checksum());
}

// -- bit identity: heap vs mmap vs store, scalar and swept ----------------

TEST(ModelV4, MappedModelBitIdenticalScalar) {
  TempDir tmp;
  const CompiledModel owned = build_model(true);
  const std::string blob = serialize(owned);
  const fs::path file = tmp.path / "m.awemodel";
  write_file(file, blob);
  const CompiledModel mapped = CompiledModel::map_file(file);
  const CompiledModel heap = stream_load(blob);

  const std::vector<double> at = nominal_values(owned);
  const std::vector<double> m0 = owned.moments_at(at);
  EXPECT_EQ(m0, mapped.moments_at(at));
  EXPECT_EQ(m0, heap.moments_at(at));

  const auto g0 = owned.moments_and_gradients(at);
  const auto g1 = mapped.moments_and_gradients(at);
  EXPECT_EQ(g0.moments, g1.moments);
  EXPECT_EQ(g0.dm, g1.dm);
}

TEST(ModelV4, SweepBitIdenticalAcrossBackingsAndThreads) {
  TempDir tmp;
  const CompiledModel owned = build_model(true);
  const std::string blob = serialize(owned);
  const fs::path file = tmp.path / "m.awemodel";
  write_file(file, blob);
  const CompiledModel mapped = CompiledModel::map_file(file);

  SharedModelStore store("awe_v4_sweep_test");
  store.publish_packed(blob);
  const auto pinned = store.acquire();
  ASSERT_NE(pinned, nullptr);

  std::vector<sweep::Distribution> dists = {
      sweep::Distribution::lognormal(2e3, 0.2),
      sweep::Distribution::lognormal(5e-12, 0.2)};
  sweep::SweepOptions base;
  base.gradients = true;

  sweep::SweepOptions ref_opts = base;
  ref_opts.threads = 1;
  const auto ref = sweep::monte_carlo(owned, dists, 64, 7, ref_opts);
  ASSERT_EQ(ref.ok_count, ref.num_points);

  for (const std::size_t threads : {1u, 4u, 8u}) {
    sweep::SweepOptions opts = base;
    opts.threads = threads;
    for (const CompiledModel* m : {&owned, &mapped, pinned.get()}) {
      const auto r = sweep::monte_carlo(*m, dists, 64, 7, opts);
      EXPECT_EQ(r.moments, ref.moments) << "threads=" << threads;
      EXPECT_EQ(r.gradients, ref.gradients) << "threads=" << threads;
      EXPECT_EQ(r.ok, ref.ok) << "threads=" << threads;
    }
  }
}

TEST(ModelV4, LazySymbolicsMatchOwnedClosedForms) {
  const CompiledModel owned = build_model(false);
  const CompiledModel heap = stream_load(serialize(owned));
  EXPECT_TRUE(heap.view_backed());
  // The closed forms force the lazy kSymbolics parse; they must agree
  // with the owned model's exactly.
  const auto names = owned.symbol_names();
  EXPECT_EQ(heap.symbol_names(), names);
  EXPECT_EQ(heap.dc_gain_expression().to_string(names),
            owned.dc_gain_expression().to_string(names));
  const auto d0 = owned.symbolic_denominator();
  const auto d1 = heap.symbolic_denominator();
  ASSERT_EQ(d0.size(), d1.size());
  for (std::size_t j = 0; j < d0.size(); ++j)
    EXPECT_EQ(d1[j].to_string(names), d0[j].to_string(names));
}

// -- goldens, pre-v5 files and exact error texts -------------------------

std::string fixture(const char* name) {
  const std::string bytes = read_file(fs::path(AWE_DATA_DIR) / name);
  EXPECT_FALSE(bytes.empty()) << name;
  return bytes;
}

// The committed v5 goldens pin the format's bytes: a fresh build of kDeck
// must save to exactly these files, and every way of opening them (stream
// load, heap blob, mmap) must evaluate bit-identically to that build and
// save back to the same bytes.  On a byte mismatch the fresh bytes are
// written next to the test binary as <fixture>.actual for inspection.
TEST(ModelV4, GoldenV5Fixtures) {
  TempDir tmp;
  for (const bool gradients : {true, false}) {
    const std::string name =
        gradients ? "golden_v5.awemodel" : "golden_v5_nograd.awemodel";
    SCOPED_TRACE(name);
    const CompiledModel fresh = build_model(gradients);
    const std::string golden = fixture(name.c_str());
    const std::string built = serialize(fresh);
    if (built != golden) write_file(name + ".actual", built);
    EXPECT_TRUE(built == golden) << "a fresh build no longer saves to " << name;

    const fs::path file = tmp.path / name;
    write_file(file, golden);
    const CompiledModel opened[] = {
        stream_load(golden),
        CompiledModel::from_blob(make_heap_blob(golden), /*verify_checksum=*/true),
        CompiledModel::map_file(file)};
    const std::vector<double> nominal = nominal_values(fresh);
    const std::vector<double> skewed = {3.3e3, 1.7e-12};
    for (const CompiledModel& model : opened) {
      EXPECT_TRUE(serialize(model) == golden) << name << " reopened resaves differently";
      for (const std::vector<double>& at : {nominal, skewed}) {
        EXPECT_EQ(model.moments_at(at), fresh.moments_at(at));
        if (!gradients) continue;
        const auto g = model.moments_and_gradients(at);
        const auto g0 = fresh.moments_and_gradients(at);
        EXPECT_EQ(g.moments, g0.moments);
        EXPECT_EQ(g.dm, g0.dm);
      }
    }
  }
}

TEST(ModelV4, BadMagicFailsWithExactErrorText) {
  std::string blob = serialize(build_model(false));
  blob[0] = 'X';
  try {
    (void)stream_load(blob);
    FAIL() << "bad magic must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "CompiledModel::load: bad magic");
  }
}

TEST(ModelV4, TruncatedV4FailsWithExactErrorText) {
  const std::string blob = serialize(build_model(false));
  try {
    (void)stream_load(blob.substr(0, blob.size() / 2));
    FAIL() << "truncated blob must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "CompiledModel::load: truncated payload");
  }
}

TEST(ModelV4, BitFlippedV4FailsAsCacheCorrupt) {
  std::string blob = serialize(build_model(false));
  blob[blob.size() - 70] ^= 0x10;
  try {
    (void)stream_load(blob);
    FAIL() << "damaged blob must not load";
  } catch (const health::FailError& e) {
    EXPECT_EQ(e.fail_class(), health::FailClass::kCacheCorrupt);
    EXPECT_STREQ(e.what(), "CompiledModel::load: payload checksum mismatch");
  }
}

TEST(ModelV4, MisalignedRegionRejectedAsModelFormat) {
  const std::string blob = serialize(build_model(false));
  std::vector<std::byte> buf(blob.size() + 64);
  std::byte* base = buf.data();
  // Force a pointer 64-aligned + 8: still 8-aligned (no hardware fault on
  // the Header read below the check), but violating the format contract.
  auto addr = reinterpret_cast<std::uintptr_t>(base);
  std::byte* misaligned = base + (64 - addr % 64) % 64 + 8;
  std::memcpy(misaligned, blob.data(), blob.size());
  try {
    (void)ModelView::open(std::span<const std::byte>(misaligned, blob.size()));
    FAIL() << "misaligned region must be rejected";
  } catch (const health::FailError& e) {
    EXPECT_EQ(e.fail_class(), health::FailClass::kModelFormat);
    EXPECT_STREQ(e.what(), "ModelView::open: model region not 64-byte aligned");
  }
}

// -- cache integration: mapped loads, quarantine, rebuild -----------------

TEST(ModelV4, CacheMapFileServesV4) {
  TempDir tmp;
  const std::string blob = serialize(build_model(false));
  const fs::path path = tmp.path / "a.awemodel";
  write_file(path, blob);
  bool quarantined = true;
  auto mapped = ModelCache::map_file(path.string(), &quarantined);
  ASSERT_TRUE(mapped.has_value());
  EXPECT_FALSE(quarantined);
  EXPECT_TRUE(mapped->view_backed());
}

TEST(ModelV4, GoldenV2FailsWithExactErrorText) {
  const std::string v2 = fixture("golden_v2.awemodel");
  try {
    (void)stream_load(v2);
    FAIL() << "v2 fixture must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "CompiledModel::load: unsupported format version");
  }
}

// Pre-v5 files (the v2/v3 stream formats and the v4 blob) fail closed on
// every open path: the stream loader and ModelView::open throw
// kModelFormat with the documented text, both cache readers quarantine the
// entry and report a miss, and a mapped build over such an entry rebuilds
// and stores the v5 bytes in its place.
TEST(ModelV4, PreV5FixturesFailClosed) {
  auto deck = circuit::parse_deck_string(kDeck);
  const auto out = *deck.netlist.find_node(deck.output_node);
  ModelOptions mopts;
  mopts.order = 2;
  const std::string key =
      model_cache_key(deck.netlist, deck.symbol_elements, deck.input_source, out, mopts);
  const std::string v5_entry = fixture("golden_v5_nograd.awemodel");

  for (const char* name :
       {"golden_v2.awemodel", "golden_v3.awemodel", "golden_v3_nograd.awemodel",
        "golden_v4.awemodel", "golden_v4_nograd.awemodel"}) {
    SCOPED_TRACE(name);
    const std::string old = fixture(name);
    const auto heap = make_heap_blob(old);
    for (const bool streamed : {true, false}) {
      try {
        if (streamed)
          (void)stream_load(old);
        else
          (void)ModelView::open(heap->bytes());
        ADD_FAILURE() << "a pre-v5 file must not open";
      } catch (const health::FailError& e) {
        EXPECT_EQ(e.fail_class(), health::FailClass::kModelFormat);
        EXPECT_STREQ(e.what(), "CompiledModel::load: unsupported format version");
      }
    }

    TempDir tmp;
    const std::string entry = ModelCache::entry_path(tmp.path.string(), key);
    const std::string bad = part::quarantine_path(entry);
    for (const bool mapped : {false, true}) {
      write_file(entry, old);
      fs::remove(bad);
      bool quarantined = false;
      const auto hit = mapped ? ModelCache::map_file(entry, &quarantined)
                              : ModelCache::load_file(entry, &quarantined);
      EXPECT_FALSE(hit.has_value()) << (mapped ? "map_file" : "load_file");
      EXPECT_TRUE(quarantined) << (mapped ? "map_file" : "load_file");
      EXPECT_TRUE(fs::exists(bad)) << (mapped ? "map_file" : "load_file");
      EXPECT_FALSE(fs::exists(entry)) << (mapped ? "map_file" : "load_file");
    }

    write_file(entry, old);
    BuildOptions bopts;
    bopts.cache_dir = tmp.path.string();
    bopts.map_model = true;
    const CompiledModel rebuilt = CompiledModel::build(
        deck.netlist, deck.symbol_elements, deck.input_source, out, mopts, bopts);
    EXPECT_FALSE(rebuilt.view_backed()) << "the pre-v5 entry must not serve the build";
    EXPECT_TRUE(read_file(entry) == v5_entry) << "the rebuild stores the v5 entry";
    EXPECT_EQ(read_file(bad), old);
  }
}

TEST(ModelV4, TruncatedMappedEntryQuarantinedThenRebuilt) {
  TempDir tmp;
  auto deck = circuit::parse_deck_string(kDeck);
  ModelOptions mopts;
  mopts.order = 2;
  BuildOptions bopts;
  bopts.cache_dir = tmp.path.string();
  bopts.map_model = true;

  const auto out = *deck.netlist.find_node(deck.output_node);
  // Cold build stores the entry; the warm mapped load must hit it.
  (void)CompiledModel::build(deck.netlist, deck.symbol_elements, deck.input_source,
                             out, mopts, bopts);
  fs::path entry;
  for (const auto& e : fs::directory_iterator(tmp.path))
    if (e.path().extension() == ".awemodel") entry = e.path();
  ASSERT_FALSE(entry.empty());
  const std::string good = read_file(entry);
  std::vector<double> warm_moments;
  {
    const CompiledModel warm = CompiledModel::build(
        deck.netlist, deck.symbol_elements, deck.input_source, out, mopts, bopts);
    EXPECT_TRUE(warm.view_backed());
    // Evaluate (and drop the mapping) BEFORE damaging the file below:
    // MAP_PRIVATE copies pages on OUR writes, not the file's — a live
    // mapping observes external rewrites of pages it never touched.
    warm_moments = warm.moments_at(nominal_values(warm));
  }

  // Torn publish: truncate the entry mid-file.  The mapped open must
  // quarantine it to <entry>.bad and the build must rebuild and re-store.
  write_file(entry, good.substr(0, good.size() / 2));
  const CompiledModel rebuilt = CompiledModel::build(
      deck.netlist, deck.symbol_elements, deck.input_source, out, mopts, bopts);
  EXPECT_TRUE(fs::exists(part::quarantine_path(entry.string())));
  EXPECT_EQ(read_file(entry), good) << "rebuild must restore the identical entry";
  EXPECT_EQ(rebuilt.moments_at(nominal_values(rebuilt)), warm_moments);
}

// -- shared hot-swap store ------------------------------------------------

TEST(ModelV4, StorePinSurvivesHotSwap) {
  auto deck = circuit::parse_deck_string(kDeck);
  ModelOptions opts;
  opts.order = 2;
  const auto out = *deck.netlist.find_node(deck.output_node);
  const CompiledModel gen1 = CompiledModel::build(
      deck.netlist, deck.symbol_elements, deck.input_source, out, opts);
  deck.netlist.set_value("r1", 2e3);  // a genuinely different generation
  const CompiledModel gen2 = CompiledModel::build(
      deck.netlist, deck.symbol_elements, deck.input_source, out, opts);

  SharedModelStore store("awe_v4_swap_test");
  EXPECT_EQ(store.generation(), 0u);
  EXPECT_EQ(store.acquire(), nullptr);
  EXPECT_EQ(store.publish(gen1), 1u);
  const auto pin = store.acquire();
  ASSERT_NE(pin, nullptr);

  EXPECT_EQ(store.publish(gen2), 2u);
  EXPECT_EQ(store.generation(), 2u);
  EXPECT_EQ(store.live_generations(), 2u) << "pin keeps generation 1 alive";

  const std::vector<double> at = nominal_values(gen1);
  // The pin still evaluates generation 1 bit-identically; a fresh acquire
  // sees generation 2 (different model, different moments).
  EXPECT_EQ(pin->moments_at(at), gen1.moments_at(at));
  const auto now = store.acquire();
  EXPECT_EQ(now->moments_at(at), gen2.moments_at(at));
  EXPECT_NE(pin->moments_at(at), now->moments_at(at));
}

TEST(ModelV4, SweepOnPinnedGenerationWhilePublishing) {
  const CompiledModel model = build_model(false);
  SharedModelStore store("awe_v4_publish_race_test");
  store.publish(model);

  std::vector<sweep::Distribution> dists = {
      sweep::Distribution::lognormal(2e3, 0.2),
      sweep::Distribution::lognormal(5e-12, 0.2)};
  sweep::SweepOptions opts;
  opts.threads = 2;
  const auto ref = sweep::monte_carlo(model, dists, 256, 11, opts);

  const auto pinned = store.acquire();
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> published{0};
  std::thread publisher([&] {
    while (!stop.load()) {
      store.publish(model);
      ++published;
    }
  });
  const auto swept = sweep::monte_carlo(*pinned, dists, 256, 11, opts);
  // The sweep can finish before the publisher first runs; wait for one
  // publish so generation 2 exists however the threads were scheduled.
  while (published.load() == 0) std::this_thread::yield();
  stop.store(true);
  publisher.join();

  EXPECT_EQ(swept.moments, ref.moments);
  EXPECT_EQ(swept.ok, ref.ok);
  EXPECT_GE(store.generation(), 2u);
}

TEST(ModelV4, RunSweepStoreOverloadPinsOnce) {
  const CompiledModel model = build_model(false);
  SharedModelStore store("awe_v4_overload_test");
  try {
    (void)sweep::run_sweep(store, {}, 0);
    FAIL() << "empty store must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "run_sweep: model store 'awe_v4_overload_test' has no published model");
  }
  store.publish(model);
  std::vector<double> pts = {2e3, 2.2e3, 5e-12, 5.5e-12};  // SoA, 2 points
  const auto viaStore = sweep::run_sweep(store, pts, 2);
  const auto direct = sweep::run_sweep(model, pts, 2);
  EXPECT_EQ(viaStore.moments, direct.moments);
}

TEST(ModelV4, FailedPublishLeavesStoreUnchanged) {
  const CompiledModel model = build_model(false);
  SharedModelStore store("awe_v4_failed_publish_test");
  store.publish(model);
  const auto before = store.acquire();

  std::string damaged = serialize(model);
  damaged[damaged.size() - 70] ^= 0x01;
  EXPECT_THROW(store.publish_packed(damaged), std::exception);
  EXPECT_EQ(store.generation(), 1u);
  EXPECT_EQ(store.acquire(), before);
  // The rejected publish consumed no generation number.
  EXPECT_EQ(store.publish(model), 2u);
}

}  // namespace
}  // namespace awe::core
