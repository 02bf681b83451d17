#include "core/model_cache.hpp"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "circuit/content_hash.hpp"
#include "core/model_format.hpp"
#include "health/failpoints.hpp"
#include "health/report.hpp"
#include "partition/block_store.hpp"

namespace awe::core {

namespace {

// -- canonical request serialization ------------------------------------
//
// Hashing lives in circuit/content_hash.hpp (shared with the partition
// block store); this file owns only the whole-model request encoding.
// The encoding is compact: element terminals are node IDs, not repeated
// name strings — the node-name table, encoded once in id order, pins
// down what each id means.

using enc::put_f64;
using enc::put_str;
using enc::put_u32;
using enc::put_u64;
using enc::put_u8;

/// Quarantine a damaged entry to "<path>.bad", count it, and report it.
void quarantine(const std::string& path, bool* corrupt_quarantined) {
  part::quarantine_entry(path, health::global_counters().cache_corrupt_quarantined);
  if (corrupt_quarantined) *corrupt_quarantined = true;
}

}  // namespace

std::string model_cache_key(const circuit::Netlist& netlist,
                            std::span<const std::string> symbol_elements,
                            const std::string& input_source,
                            circuit::NodeId output_node, const ModelOptions& opts) {
  // Values of symbolic elements and of the input source never enter the
  // compiled model (runtime inputs / unit-normalized excitation), so they
  // are excluded from the encoding: editing them must still hit.
  std::unordered_set<std::string> value_excluded(symbol_elements.begin(),
                                                 symbol_elements.end());
  value_excluded.insert(input_source);

  std::string buf;
  buf.reserve(256 + 48 * (netlist.num_nodes() + netlist.elements().size()));
  put_u64(buf, kModelFormatVersion);

  // Node NAMES in id order (ids are an interning artifact; two decks that
  // intern the same names in the same order are the same circuit).
  put_u64(buf, netlist.num_nodes());
  for (circuit::NodeId id = 0; id <= netlist.num_nodes(); ++id)
    put_str(buf, netlist.node_name(id));

  put_u64(buf, netlist.elements().size());
  for (const circuit::Element& e : netlist.elements()) {
    // Terminals by node id — the name table above fixes their meaning.
    // Control fields appear only for the kinds that read them; the kind
    // byte leads, so the conditional layout stays self-describing.
    put_u8(buf, static_cast<std::uint8_t>(e.kind));
    put_str(buf, e.name);
    put_u32(buf, e.pos);
    put_u32(buf, e.neg);
    switch (e.kind) {
      case circuit::ElementKind::kVccs:
      case circuit::ElementKind::kVcvs:
        put_u32(buf, e.ctrl_pos);
        put_u32(buf, e.ctrl_neg);
        break;
      case circuit::ElementKind::kCccs:
      case circuit::ElementKind::kCcvs:
        put_str(buf, e.ctrl_source);
        break;
      case circuit::ElementKind::kMutual:
        put_str(buf, e.ctrl_source);
        put_str(buf, e.ctrl_source2);
        break;
      default:
        break;
    }
    const bool value_matters = value_excluded.find(e.name) == value_excluded.end();
    put_u8(buf, value_matters ? 1 : 0);
    if (value_matters) put_f64(buf, e.value);
  }

  // Symbol order is model-visible (it fixes the input layout), so the set
  // is encoded in caller order, not sorted.
  put_u64(buf, symbol_elements.size());
  for (const std::string& s : symbol_elements) put_str(buf, s);
  put_str(buf, input_source);
  // The output is encoded as a one-element list: the layout existing cache
  // entries and printed keys were derived with.
  put_u64(buf, 1);
  put_u32(buf, output_node);

  put_u64(buf, opts.order);
  put_u8(buf, opts.enforce_stability ? 1 : 0);
  put_u8(buf, opts.allow_order_fallback ? 1 : 0);
  put_u8(buf, opts.with_gradients ? 1 : 0);

  return enc::digest_hex(buf);
}

std::string ModelCache::entry_path(const std::string& dir, const std::string& key) {
  return (std::filesystem::path(dir) / (key + ".awemodel")).string();
}

std::optional<CompiledModel> ModelCache::load_file(const std::string& path,
                                                   bool* corrupt_quarantined) {
  namespace fp = health::failpoints;
  if (corrupt_quarantined) *corrupt_quarantined = false;
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  // Injection site: treat a perfectly good entry as corrupt, driving the
  // quarantine path below without having to damage bytes first.
  bool corrupt = fp::fires(fp::sites::kCacheLoadCorrupt);
  std::optional<CompiledModel> model;
  if (!corrupt) {
    try {
      model = CompiledModel::load(in);
    } catch (const std::exception&) {
      corrupt = true;
    }
  }
  if (!corrupt) return model;
  in.close();
  // Corrupt/truncated/foreign-version entry: quarantine it to <path>.bad
  // (evidence preserved, never re-probed) and report a miss; the cold
  // build that follows stores a fresh entry at the original path.
  quarantine(path, corrupt_quarantined);
  return std::nullopt;
}

std::optional<CompiledModel> ModelCache::map_file(const std::string& path,
                                                  bool* corrupt_quarantined) {
  namespace fp = health::failpoints;
  if (corrupt_quarantined) *corrupt_quarantined = false;
  // An absent entry is a plain miss; anything present that does not open
  // as a valid v5 blob is quarantined below.
  if (!std::ifstream(path, std::ios::binary)) return std::nullopt;
  if (!fp::fires(fp::sites::kCacheLoadCorrupt)) {
    try {
      return CompiledModel::map_file(path);
    } catch (const std::exception&) {
      // fall through to quarantine
    }
  }
  quarantine(path, corrupt_quarantined);
  return std::nullopt;
}

void ModelCache::store_file(const std::string& dir, const std::string& key,
                            const CompiledModel& model) {
  namespace fs = std::filesystem;
  namespace fp = health::failpoints;
  fs::create_directories(dir);
  const std::string final_path = entry_path(dir, key);
  // A torn entry from the store_crash site is quarantined by the next
  // load, never thrown.
  if (!part::write_entry(final_path, model.pack(), fp::sites::kCacheStoreCrash)) return;
  std::error_code ec;
  // Injection sites: post-rename media damage (truncation, a flipped bit)
  // that the load-side validation must catch and quarantine.
  if (fp::fires(fp::sites::kCacheStoreTruncate)) {
    const auto size = fs::file_size(final_path, ec);
    if (!ec) fs::resize_file(final_path, size / 2, ec);
  }
  if (fp::fires(fp::sites::kCacheStoreBitflip)) {
    std::fstream f(final_path, std::ios::binary | std::ios::in | std::ios::out);
    const auto size = fs::file_size(final_path, ec);
    if (f && !ec && size > 0) {
      const auto pos = static_cast<std::streamoff>(size / 2);
      f.seekg(pos);
      char byte = 0;
      f.get(byte);
      f.seekp(pos);
      f.put(static_cast<char>(byte ^ 0x10));
    }
  }
}

}  // namespace awe::core
