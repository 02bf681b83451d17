// Persistent compiled-model cache (DESIGN.md §10).
//
// Building a CompiledModel is the expensive part of an AWEsymbolic run:
// the numeric partition reduction, the adjugate recursion over polynomial
// matrices and the CSE/compile pass all scale with circuit size and moment
// order, while the artifact they produce — a flat register program plus a
// handful of polynomials — serializes to a few kilobytes.  The cache makes
// that cost once-per-circuit instead of once-per-process:
//
//   key   = content hash of (canonical netlist, symbol set, input, outputs,
//           ModelOptions, format version)      -- model_cache_key()
//   disk  = <cache_dir>/<key>.awemodel         -- atomic tmp+rename store
//   RAM   = in-process LRU of shared_ptr<const CompiledModel>
//
// Because CompiledModel::save is deterministic and load restores the exact
// bytes, a cached model is bit-identical to a cold build — in kStrict AND
// kFast — which test_model_cache and the determinism matrix's rows assert.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/awesymbolic.hpp"

namespace awe::core {

/// Deterministic content key (32 lowercase hex chars) of a CompiledModel
/// build request.  Covers everything the build output depends on:
/// canonicalized netlist topology (node NAMES in id order; per element:
/// kind, name, terminal/controlling node names, control-source names),
/// non-symbolic element values (they are folded into the numeric partition
/// and become program constants), the symbolic element set, input source,
/// output node(s) and ModelOptions, plus the serialization format version.
/// Deliberately EXCLUDED: the values of symbolic elements and of the input
/// source — neither enters the compiled model (symbols are runtime inputs;
/// the excitation is unit-normalized), so editing them must still hit.
std::string model_cache_key(const circuit::Netlist& netlist,
                            std::span<const std::string> symbol_elements,
                            const std::string& input_source,
                            std::span<const circuit::NodeId> output_nodes,
                            const ModelOptions& opts);

/// Two-level (memory LRU + disk) cache of compiled models.  All public
/// methods are thread-safe; the build itself runs outside the lock, so
/// concurrent misses on the same key may each build once — the atomic
/// store keeps the disk entry coherent and the LRU keeps one copy.
class ModelCache {
 public:
  /// `cache_dir` may be empty for a memory-only cache.  `max_entries` caps
  /// the in-process LRU (0 disables the memory level).
  explicit ModelCache(std::string cache_dir, std::size_t max_entries = 64);

  /// "<dir>/<key>.awemodel".
  static std::string entry_path(const std::string& dir, const std::string& key);

  /// Load one cache file.  Returns nullopt when the file is absent OR
  /// unreadable/corrupt — a damaged entry is a miss, never an error, so
  /// callers fall back to a cold build.  A corrupt entry is additionally
  /// QUARANTINED: renamed to "<path>.bad" (preserving the evidence for
  /// inspection) and counted in health::global_counters(), so the rebuild
  /// stores a fresh entry instead of overwriting the damaged one in place.
  /// `corrupt_quarantined`, when non-null, reports whether that happened.
  static std::optional<CompiledModel> load_file(const std::string& path,
                                                bool* corrupt_quarantined = nullptr);

  /// Zero-copy variant of load_file: mmap the entry in place
  /// (CompiledModel::map_file) instead of reading the stream — O(pages
  /// touched) instead of O(model size).  The miss/quarantine contract is
  /// identical to load_file: any damage (truncated publish, bad section
  /// table, a pre-v4 or other foreign version) quarantines the entry to
  /// "<path>.bad" and reports a miss.  The mapped open skips the full-payload checksum by design
  /// (DESIGN.md §15.2) — structural validation still bounds-checks every
  /// section and instruction, so a damaged entry can fail wrong only
  /// within its own numbers, never out of its region.
  static std::optional<CompiledModel> map_file(const std::string& path,
                                               bool* corrupt_quarantined = nullptr);

  /// Persist `model` as `dir`/<key>.awemodel, creating `dir` on demand.
  /// Writes to a unique temp file then renames — concurrent builders can
  /// race on the same key and readers still only ever see complete files.
  static void store_file(const std::string& dir, const std::string& key,
                         const CompiledModel& model);

  /// LRU -> disk -> cold build, returning a shared handle (models are
  /// immutable, so one instance serves any number of concurrent sweeps).
  /// `build_opts.cache_dir` is ignored — this cache IS the cache layer.
  std::shared_ptr<const CompiledModel> get_or_build(
      const circuit::Netlist& netlist, std::vector<std::string> symbol_elements,
      const std::string& input_source, const std::string& output_node,
      const ModelOptions& opts = {}, const BuildOptions& build_opts = {});

  struct Stats {
    std::size_t memory_hits = 0;
    std::size_t disk_hits = 0;
    std::size_t misses = 0;  ///< cold builds
    std::size_t evictions = 0;
    std::size_t corrupt_quarantined = 0;  ///< entries moved to .bad on load
    std::size_t rebuilds_after_quarantine = 0;  ///< cold builds replacing them
  };
  Stats stats() const;
  std::size_t memory_entries() const;
  const std::string& cache_dir() const { return dir_; }

 private:
  std::shared_ptr<const CompiledModel> memory_get(const std::string& key);
  void memory_put(const std::string& key, std::shared_ptr<const CompiledModel> model);

  std::string dir_;
  std::size_t max_entries_;
  mutable std::mutex mu_;
  /// MRU-first list of (key, model); map points into the list.
  std::list<std::pair<std::string, std::shared_ptr<const CompiledModel>>> lru_;
  std::unordered_map<std::string, decltype(lru_)::iterator> index_;
  Stats stats_;
};

}  // namespace awe::core
