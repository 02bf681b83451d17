// Persistent content-addressed store of per-cell port-moment blocks —
// the partition-level half of the compiled-model cache (DESIGN.md §13).
//
// Each entry is one cell's Maclaurin admittance blocks Y_0..Y_{count-1}
// under its canonical cell key (see cells.hpp): a fixed binary layout
// with a trailing content checksum, written tmp+rename so readers never
// see a torn entry from a live writer.  A writer that died mid-store (or
// media damage) is caught by the checksum on load: the entry is
// quarantined to <entry>.bad and recomputed — a corrupt store can cost
// time, never correctness.  Blocks hold the extraction's doubles
// verbatim, so a reloaded block is bit-identical to a fresh one.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace awe::part {

class BlockStore {
 public:
  /// `dir` is created lazily on the first store().
  explicit BlockStore(std::string dir);

  /// Load the blocks for `key`, expecting `nb` boundary nodes and `count`
  /// moments.  Returns std::nullopt on miss; a present-but-invalid entry
  /// (bad magic/shape/checksum — including the cache.partition failpoint's
  /// torn writes) is quarantined to <entry>.bad, counted in
  /// partition_blocks_quarantined, and reported as a miss.
  std::optional<std::vector<std::vector<double>>> load(const std::string& key,
                                                       std::size_t nb,
                                                       std::size_t count);

  /// Atomically store blocks under `key` (tmp + rename).  The
  /// cache.partition failpoint simulates a mid-store crash here: half the
  /// bytes land at the final path with no rename discipline.
  void store(const std::string& key, std::size_t nb,
             const std::vector<std::vector<double>>& blocks);

  static std::string entry_path(const std::string& dir, const std::string& key);

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

// The entry discipline of both on-disk caches, this store and
// core::ModelCache (DESIGN.md §15).

/// Write `bytes` to "<path>.tmp.<pid>.<n>" and rename it over `path`: a
/// reader never opens a half-written entry, and the last of several racing
/// writers wins with identical bytes.  When the failpoint `crash_site`
/// fires, half the bytes land at `path` with no rename, as a writer that
/// died mid-store leaves them, and the result is false.  Throws
/// std::runtime_error when the open, the write, the close or the rename
/// fails; a failure after the open removes the temp file first.
bool write_entry(const std::string& path, std::string_view bytes, const char* crash_site);

/// "<path>.bad": where quarantine_entry moves a damaged entry.
inline std::string quarantine_path(const std::string& path) { return path + ".bad"; }

/// Move a damaged entry to quarantine_path(path) (evidence kept, never
/// re-probed) and add one to `counter`.  Best-effort: when the rename fails
/// the entry is removed, so a quarantine always surfaces as a miss, never a
/// throw.
void quarantine_entry(const std::string& path, std::atomic<std::uint64_t>& counter);

}  // namespace awe::part
