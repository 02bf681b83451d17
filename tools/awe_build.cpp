// awe_build — build compiled models from decks through the persistent
// model cache.
//
// The workhorse behind the determinism matrix's cache and incremental rows
// (tools/determinism_matrix.py): building the same decks into two fresh
// cache directories must produce byte-identical entries, and a second run
// against a warm cache must load (not rebuild) every model.  Also handy
// interactively, to pre-warm a cache before a sweep campaign or to inspect
// cache keys.
//
// Per deck, prints:  <cache-key>  <cold|warm>  <deck-path>
// Exit status: 0 on success, 2 on bad usage or any failed deck.  A corrupt
// cache entry is NOT a failure: it is quarantined to <entry>.bad, rebuilt,
// and reported in the health JSON.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "circuit/parser.hpp"
#include "core/cli_support.hpp"
#include "core/model_cache.hpp"
#include "health/report.hpp"
#include "partition/block_store.hpp"

namespace {

using namespace awe;

/// --map-audit: the integrity pass the mmap fast path deliberately skips.
/// Every entry is mapped and verified fully (payload checksum + every
/// structural/cross-field check in from_blob).  Damage, including a
/// pre-v4 format version, quarantines to <entry>.bad.
int map_audit_dir(const std::string& dir, bool quiet) {
  namespace fs = std::filesystem;
  std::size_t ok = 0, quarantined = 0;
  for (const auto& ent : fs::directory_iterator(dir)) {
    if (!ent.is_regular_file() || ent.path().extension() != ".awemodel") continue;
    const std::string path = ent.path().string();
    try {
      (void)awe::core::CompiledModel::map_file(path, /*verify_checksum=*/true);
      ++ok;
      if (!quiet) std::printf("audit ok   %s\n", path.c_str());
    } catch (const std::exception& e) {
      awe::part::quarantine_entry(path,
                                  awe::health::global_counters().cache_corrupt_quarantined);
      ++quarantined;
      std::fprintf(stderr, "awe_build: --map-audit: %s: %s (quarantined)\n",
                   path.c_str(), e.what());
    }
  }
  if (!quiet)
    std::printf("awe_build: --map-audit: %zu ok, %zu quarantined\n", ok, quarantined);
  return quarantined == 0 ? 0 : 2;
}

/// Alphabetically first numeric two-terminal R/G/C/L of the deck — the
/// canonical "edit one element" target of the determinism matrix's
/// incremental rows.
std::string first_numeric_element(const circuit::ParsedDeck& deck) {
  std::string best;
  for (const auto& e : deck.netlist.elements()) {
    switch (e.kind) {
      case circuit::ElementKind::kResistor:
      case circuit::ElementKind::kConductance:
      case circuit::ElementKind::kCapacitor:
      case circuit::ElementKind::kInductor:
        break;
      default:
        continue;
    }
    bool excluded = e.name == deck.input_source;
    for (const auto& s : deck.symbol_elements) excluded = excluded || s == e.name;
    if (excluded) continue;
    if (best.empty() || e.name < best) best = e.name;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  cli::install_sigpipe_guard();
  const cli::HealthJsonSink sink = cli::HealthJsonSink::from_argv(argc, argv);
  std::string cache_dir;
  std::string audit_dir;
  core::ModelOptions mopts;
  core::BuildOptions bopts;
  bool quiet = false;
  std::string save_model;
  std::optional<double> edit_first_factor;
  std::vector<std::pair<std::string, double>> edits;

  const cli::Parser cli{
      .tool = "awe_build",
      .synopsis = "--cache-dir DIR [options] deck.sp [deck2.sp ...] | --map-audit DIR",
      .options = {
          cli::text("--cache-dir", "DIR", cache_dir, "persistent cache directory"),
          cli::number("--order", "Q", mopts.order, "Padé order (default 2)", 1),
          cli::number("--threads", "N", bopts.threads,
                      "extraction worker threads, 0 = hardware (default 1)"),
          cli::flag("--gradients", mopts.with_gradients,
                    "also compile the exact symbolic gradients"),
          cli::flag("--incremental", bopts.incremental,
                    "rebuild only an edited deck's dirty cells (DESIGN.md §13)"),
          cli::flag("--mmap", bopts.map_model,
                    "warm loads mmap the v4 cache entry in place"),
          {"--edit", "NAME=VAL", "set element NAME to VAL in every deck (repeatable)",
           [&](const std::string& spec) {
             const auto eq = spec.find('=');
             if (eq == std::string::npos || eq == 0) return false;
             const auto value = cli::parse_number<double>(spec.substr(eq + 1));
             if (value) edits.emplace_back(spec.substr(0, eq), *value);
             return value.has_value();
           }},
          cli::number("--edit-first-numeric", "FACTOR", edit_first_factor,
                      "scale the first-named numeric R/G/C/L by FACTOR != 0"),
          cli::text("--save-model", "FILE", save_model,
                    "write the (last) built model to FILE"),
          cli::text("--map-audit", "DIR", audit_dir,
                    "fully verify DIR/*.awemodel; quarantine bad ones (exit 2)"),
          cli::HealthJsonSink::option(),
          cli::flag("--quiet", quiet, "suppress the per-deck lines")},
      .max_args = SIZE_MAX,
      .sink = &sink};
  const std::vector<std::string> decks = cli.parse(argc, argv);
  if (edit_first_factor == 0.0) cli.fail("--edit-first-numeric needs a nonzero factor");
  // The maintenance mode runs standalone: no decks, no cache instance.
  if (!audit_dir.empty()) {
    if (!decks.empty() || !cache_dir.empty())
      cli.fail("--map-audit takes no decks and no --cache-dir");
    const int rc = map_audit_dir(audit_dir, quiet);
    sink.flush();
    return rc;
  }
  if (cache_dir.empty() || decks.empty()) cli.fail("needs --cache-dir and a deck");

  core::ModelCache cache(cache_dir);
  int failures = 0;
  std::shared_ptr<const core::CompiledModel> last_model;
  for (const std::string& path : decks) {
    try {
      std::ifstream in(path);
      if (!in) throw std::runtime_error("cannot open deck");
      circuit::ParsedDeck deck = circuit::parse_deck(in);
      if (deck.symbol_elements.empty() || deck.input_source.empty() ||
          deck.output_node.empty())
        throw std::runtime_error("deck needs .symbol/.input/.output directives");

      // Pre-build edits: the deck on disk stays pristine; the edited
      // netlist is what gets keyed and built, exactly as if the file had
      // been edited — so a cold build of the edited file and an
      // incremental rebuild from here must byte-agree.
      for (const auto& [name, value] : edits) deck.netlist.set_value(name, value);
      if (edit_first_factor) {
        const std::string target = first_numeric_element(deck);
        if (target.empty())
          throw std::runtime_error("--edit-first-numeric: no numeric element");
        const auto idx = deck.netlist.find_element(target);
        deck.netlist.set_value(*idx, deck.netlist.elements()[*idx].value *
                                         *edit_first_factor);
        if (!quiet)
          std::printf("edit  %s *= %g  %s\n", target.c_str(), *edit_first_factor,
                      path.c_str());
      }

      const auto out_node = deck.netlist.find_node(deck.output_node);
      if (!out_node) throw std::runtime_error("unknown output node");
      const circuit::NodeId outs[] = {*out_node};
      const std::string key = core::model_cache_key(
          deck.netlist, deck.symbol_elements, deck.input_source, outs, mopts);

      const auto before = cache.stats();
      last_model = cache.get_or_build(deck.netlist, deck.symbol_elements,
                                      deck.input_source, deck.output_node, mopts,
                                      bopts);
      const auto after = cache.stats();
      const char* how = after.misses > before.misses ? "cold" : "warm";
      if (!quiet) std::printf("%s  %s  %s\n", key.c_str(), how, path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "awe_build: %s: %s\n", path.c_str(), e.what());
      ++failures;
    }
  }

  if (!save_model.empty()) {
    if (!last_model) {
      std::fprintf(stderr, "awe_build: --save-model: no model was built\n");
      sink.flush();
      return 2;
    }
    std::ofstream out(save_model, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "awe_build: cannot write %s\n", save_model.c_str());
      sink.flush();
      return 2;
    }
    last_model->save(out);
  }

  if (!quiet) {
    const auto s = cache.stats();
    std::printf("awe_build: %zu decks — %zu cold builds, %zu disk hits, %zu memory hits\n",
                decks.size(), s.misses, s.disk_hits, s.memory_hits);
  }

  // Under the SIGPIPE guard a consumer that closed stdout early (e.g.
  // "--health-json - | head") makes this write fail with EPIPE instead of
  // killing the process; that still exits 0 — the consumer chose to stop.
  sink.flush();
  return failures == 0 ? 0 : 2;
}
