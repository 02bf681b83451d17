// Persistent compiled-model cache (DESIGN.md §10).
//
// Building a CompiledModel is the expensive part of an AWEsymbolic run:
// the numeric partition reduction, the adjugate recursion over polynomial
// matrices and the CSE/compile pass all scale with circuit size and moment
// order, while the artifact they produce — a flat register program plus a
// handful of polynomials — serializes to a few kilobytes.  The cache makes
// that cost once-per-circuit instead of once-per-process:
//
//   key   = content hash of (canonical netlist, symbol set, input, output,
//           ModelOptions, format version)      -- model_cache_key()
//   disk  = <cache_dir>/<key>.awemodel         -- atomic tmp+rename store
//
// CompiledModel::build with BuildOptions::cache_dir is the one entry
// point: it probes, quarantines, builds and stores through the static
// helpers below.
//
// Because CompiledModel::save is deterministic and load restores the exact
// bytes, a cached model is bit-identical to a cold build, which
// test_model_cache and the determinism matrix's rows assert.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "core/awesymbolic.hpp"

namespace awe::core {

/// Deterministic content key (32 lowercase hex chars) of a CompiledModel
/// build request.  Covers everything the build output depends on:
/// canonicalized netlist topology (node NAMES in id order; per element:
/// kind, name, terminal/controlling node names, control-source names),
/// non-symbolic element values (they are folded into the numeric partition
/// and become program constants), the symbolic element set, input source,
/// output node and ModelOptions, plus the serialization format version.
/// Deliberately EXCLUDED: the values of symbolic elements and of the input
/// source — neither enters the compiled model (symbols are runtime inputs;
/// the excitation is unit-normalized), so editing them must still hit.
std::string model_cache_key(const circuit::Netlist& netlist,
                            std::span<const std::string> symbol_elements,
                            const std::string& input_source,
                            circuit::NodeId output_node, const ModelOptions& opts);

/// The on-disk level of the compiled-model cache: entry paths, loads that
/// quarantine damage, and the atomic store.  Stateless; safe to call from
/// any number of threads at once.
class ModelCache {
 public:
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
  /// table, a pre-v5 or other foreign version) quarantines the entry to
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
};

}  // namespace awe::core
