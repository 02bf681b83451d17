// Shared hot-swap model store (DESIGN.md §15.4).
//
// A long-lived evaluation service wants to keep sweeping while a newer
// compiled model is published underneath it.  SharedModelStore holds ONE
// logical model as a sequence of immutable generations: publish() packs
// (or accepts) a v5 blob, copies it into a fresh 64-byte-aligned heap
// region, verifies the payload checksum ONCE, opens a view-backed
// CompiledModel over it, and atomically swaps it in as the new current
// generation.  acquire() pins whatever generation is current at that
// instant; the returned shared_ptr (and every copy the sweep engine
// makes) keeps that generation's region alive until the last reader
// drops it — readers never observe a torn or partially-published model.
//
// Concurrency contract: publish() and acquire() may race freely from any
// number of threads.  acquire() is a mutex-protected shared_ptr copy
// (nanoseconds); publish() holds the same mutex only to number and swap
// in the new generation — packing, the copy and checksum verification
// all happen outside the lock.  Generations are unique and monotonically
// increasing, and a sweep pinned on generation N completes
// bit-identically while N+1 (or N+5) publishes — asserted by
// test_model_v4 and test_model_store_race.
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
  /// Where published generations live.  The heap is the only backing;
  /// the enum and the two-argument constructor stay for perfbench.
  enum class Backing : std::uint8_t {
    kHeap,  ///< 64-byte-aligned private heap regions
  };

  /// `name` labels the store in error messages.
  explicit SharedModelStore(std::string name, Backing backing = Backing::kHeap);

  SharedModelStore(const SharedModelStore&) = delete;
  SharedModelStore& operator=(const SharedModelStore&) = delete;

  /// Pack `model` to v5 bytes and publish as the next generation.
  /// Returns the new generation number.  Throws (store unchanged, no
  /// generation number consumed) if the packed blob fails verification.
  std::uint64_t publish(const CompiledModel& model);

  /// Publish pre-packed v5 bytes (e.g. a cache entry read verbatim).  The
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

  /// Generations whose regions are still alive: the current one plus any
  /// retired generations pinned by outstanding readers.  Observability
  /// for tests and leak triage, not a synchronization primitive.
  std::size_t live_generations() const;

 private:
  std::string name_;
  mutable std::mutex mu_;
  std::uint64_t generation_ = 0;
  std::shared_ptr<const CompiledModel> current_;
  /// Retired generations, weakly held so live_generations() can count
  /// which ones readers still pin; pruned opportunistically on publish.
  mutable std::vector<std::weak_ptr<const CompiledModel>> retired_;
};

}  // namespace awe::core
