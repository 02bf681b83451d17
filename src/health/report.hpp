// Aggregated health counters (DESIGN.md §11).
//
// A HealthReport is the machine-readable answer to "how did that run
// degrade": per-FailClass failure counts, the point disposition of a sweep
// (fitted / degraded-with-stage / quarantined), ladder-stage counters, and
// cache quarantine activity.  SweepResult carries one; awesym_cli,
// awe_build and awe_fuzz emit it as JSON.  to_json is deterministic (fixed
// key order, no timestamps) so run-twice comparisons stay byte-stable.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "health/status.hpp"

namespace awe::health {

struct HealthReport {
  /// Failure events by class, indexed by FailClass.  A degraded point that
  /// recovered does NOT count here; only terminal failures do.
  std::array<std::uint64_t, kFailClassCount> fail_counts{};

  // Point disposition of a sweep: total == ok + degraded + quarantined.
  std::uint64_t points_total = 0;
  std::uint64_t points_ok = 0;           ///< fitted first try, no ladder
  std::uint64_t points_degraded = 0;     ///< recovered at a later stage
  std::uint64_t points_quarantined = 0;  ///< terminal failure, FailClass recorded

  // Degradation-ladder stage counters (attempts that RAN, recovered or not).
  std::uint64_t strict_reevals = 0;   ///< fast-mode point re-run in strict
  std::uint64_t order_fallbacks = 0;  ///< Padé order fallback attempted
  std::uint64_t shifted_refits = 0;   ///< shifted-moment refit attempted

  // Persistent-cache fault containment.
  std::uint64_t cache_corrupt_quarantined = 0;  ///< entries moved to .bad
  std::uint64_t cache_rebuilds = 0;             ///< rebuilds after quarantine

  // Incremental partition-level rebuild (DESIGN.md §13).
  std::uint64_t partition_blocks_reused = 0;       ///< cell blocks loaded from the store
  std::uint64_t partition_blocks_built = 0;        ///< cell blocks extracted fresh
  std::uint64_t partition_blocks_quarantined = 0;  ///< torn/corrupt blocks moved to .bad

  // Evaluation daemon (DESIGN.md §16).  Filled by awe_serve's ServeStats
  // snapshot; always present (zero) in reports from other tools so the
  // JSON shape stays fixed.
  std::uint64_t serve_requests = 0;        ///< eval requests admitted
  std::uint64_t serve_shed = 0;            ///< requests rejected by admission control
  std::uint64_t serve_deadline_expired = 0;///< requests that hit their deadline
  std::uint64_t serve_evicted = 0;         ///< slow/oversized clients disconnected
  std::uint64_t serve_reload_failures = 0; ///< model reload attempts that failed

  std::uint64_t failpoint_fires = 0;  ///< injected faults observed

  void record_failure(FailClass c) {
    ++fail_counts[static_cast<std::size_t>(c)];
  }
  std::uint64_t failures(FailClass c) const {
    return fail_counts[static_cast<std::size_t>(c)];
  }
  /// Element-wise sum of every counter.
  void merge(const HealthReport& other);

  /// Deterministic JSON: fixed key order, every FailClass key present
  /// (zero or not) under "fail_classes" so diffs never depend on which
  /// failures happened to occur.
  std::string to_json(int indent = 0) const;
};

/// Process-global counters for events raised on static paths (cache
/// quarantine, failpoint fires) that have no SweepResult to land in.
/// Tools snapshot() these into the HealthReport they emit.
struct GlobalCounters {
  std::atomic<std::uint64_t> cache_corrupt_quarantined{0};
  std::atomic<std::uint64_t> cache_rebuilds{0};
  std::atomic<std::uint64_t> failpoint_fires{0};
  std::atomic<std::uint64_t> partition_blocks_reused{0};
  std::atomic<std::uint64_t> partition_blocks_built{0};
  std::atomic<std::uint64_t> partition_blocks_quarantined{0};
};

GlobalCounters& global_counters();

/// Fold the process-global counters into `report` (overwrites the fields
/// they cover — they are process-scope, not additive per sweep).
void absorb_global_counters(HealthReport& report);

}  // namespace awe::health
