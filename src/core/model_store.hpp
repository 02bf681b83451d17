// Shared hot-swap model store (DESIGN.md §15.4).
//
// A long-lived evaluation service wants to keep sweeping while a newer
// compiled model is published underneath it.  SharedModelStore holds ONE
// logical model as a sequence of immutable generations: publish() packs
// (or accepts) a v4 blob, places it in a fresh region — a named POSIX
// shared-memory object ("/<name>.g<gen>") or a 64-byte-aligned heap
// region — verifies the payload checksum ONCE, opens a view-backed
// CompiledModel over it, and atomically swaps it in as the new current
// generation.  acquire() pins whatever generation is current at that
// instant; the returned shared_ptr (and every copy the sweep engine
// makes) keeps that generation's region mapped until the last reader
// drops it.  The store unlinks a retired shm name immediately after the
// swap, so the region's NAME disappears while its PAGES survive for
// exactly as long as someone is still evaluating against them — readers
// never observe a torn or partially-published model.
//
// Concurrency contract: publish() and acquire() may race freely from any
// number of threads.  acquire() is a mutex-protected shared_ptr copy
// (nanoseconds); publish() holds the same mutex only for the pointer swap
// itself — packing, region creation and checksum verification all happen
// outside the lock.  Generations are monotonically increasing and a
// sweep pinned on generation N completes bit-identically while N+1 (or
// N+5) publishes — asserted by test_model_v4 and the determinism matrix's
// --shm backing rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/awesymbolic.hpp"

namespace awe::core {

class SharedModelStore {
 public:
  /// Where published generations live.
  enum class Backing : std::uint8_t {
    kHeap,  ///< 64-byte-aligned private heap regions (single process)
    kShm,   ///< shm_open regions "/<name>.g<gen>" (cross-process readers)
  };

  /// `name` scopes the shm object names; keep it unique per store.
  explicit SharedModelStore(std::string name, Backing backing = Backing::kHeap);
  /// Unlinks the live generation's shm name.  Pinned readers in this or
  /// other processes keep their mappings until they drop them.
  ~SharedModelStore();

  SharedModelStore(const SharedModelStore&) = delete;
  SharedModelStore& operator=(const SharedModelStore&) = delete;

  /// Pack `model` to v4 bytes and publish as the next generation.
  /// Returns the new generation number.  Throws (store unchanged) if the
  /// region cannot be created or the packed blob fails verification.
  std::uint64_t publish(const CompiledModel& model);

  /// Publish pre-packed v4 bytes (e.g. a cache entry read verbatim).  The
  /// payload checksum is verified against the region AFTER the copy, so a
  /// torn or damaged source fails here — never at a reader.
  std::uint64_t publish_packed(std::string_view blob);

  /// Pin and return the current generation's model, or nullptr when
  /// nothing has been published yet.  Never blocks a publish; the result
  /// keeps its generation's region alive independent of later swaps.
  /// `generation_out` (optional) receives the pinned generation number in
  /// the same atomic step — a separate generation() call could race a
  /// concurrent publish and report a generation the pin doesn't hold.
  std::shared_ptr<const CompiledModel> acquire(
      std::uint64_t* generation_out = nullptr) const;

  /// Monotonic generation counter; 0 until the first publish.
  std::uint64_t generation() const;

  const std::string& name() const { return name_; }
  Backing backing() const { return backing_; }

  /// Generations whose regions are still mapped: the current one plus any
  /// retired generations pinned by outstanding readers.  Observability
  /// for tests and leak triage, not a synchronization primitive.
  std::size_t live_generations() const;

 private:
  std::string shm_name(std::uint64_t gen) const;

  std::string name_;
  Backing backing_;
  mutable std::mutex mu_;
  /// Reservation counter for publishers: each publish_packed takes a
  /// UNIQUE generation (and therefore a unique shm name) up front, so
  /// concurrent publishers never race on one region name.  generation_
  /// below tracks which reserved generation is currently serving; a
  /// publisher that loses the swap race retires its own region instead.
  std::uint64_t next_generation_ = 0;
  std::uint64_t generation_ = 0;
  std::shared_ptr<const CompiledModel> current_;
  /// Retired generations, weakly held so live_generations() can count
  /// which ones readers still pin; pruned opportunistically on publish.
  mutable std::vector<std::weak_ptr<const CompiledModel>> retired_;
};

}  // namespace awe::core
