// Deterministic fault injection (DESIGN.md §11).
//
// A failpoint is a named site in production code that, when armed, either
// reports "fire now" (data-corruption sites decide what the corruption
// looks like) or throws FailError(kInjectedFault).  Sites are armed by API
// or by the AWE_FAILPOINTS environment variable:
//
//   AWE_FAILPOINTS="model_cache.store_truncate=once,linalg.lu_singular=nth:3"
//
// Modes: "always", "once" (fire on the first check, then disarm),
// "nth:<k>" (fire on the k-th check of that site only, 1-based), "off".
// Firing is a pure function of the per-site check counter, so a given
// arming produces the same injection schedule run to run (modulo thread
// interleaving when several threads race on one site).
//
// Zero-cost when disabled: every check first reads one relaxed atomic that
// is false unless at least one site has ever been armed, so production hot
// paths pay a single predictable-branch load.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "health/status.hpp"

namespace awe::health::failpoints {

/// Registered site names; new sites go here.  tools/determinism_matrix.py
/// fails unless each site outside serve.* has a row that arms it.
namespace sites {
inline constexpr const char* kLuSingular = "linalg.lu_singular";
inline constexpr const char* kSparseSingular = "linalg.sparse_singular";
inline constexpr const char* kPartitionMomentSolve = "partition.moment_solve";
inline constexpr const char* kCacheStoreTruncate = "model_cache.store_truncate";
inline constexpr const char* kCacheStoreBitflip = "model_cache.store_bitflip";
inline constexpr const char* kCacheStoreCrash = "model_cache.store_crash";
inline constexpr const char* kCacheLoadCorrupt = "model_cache.load_corrupt";
inline constexpr const char* kPartitionBlock = "cache.partition";
inline constexpr const char* kThreadPoolTask = "thread_pool.task";
inline constexpr const char* kServeAccept = "serve.accept";
inline constexpr const char* kServeRead = "serve.read";
inline constexpr const char* kServeSwap = "serve.swap";
}  // namespace sites

/// All registered site names, in registry order.
std::vector<std::string> registered_sites();

namespace detail {
extern std::atomic<bool> g_enabled;
bool fires_slow(std::string_view site);
}  // namespace detail

/// True once any site has been armed this process (and not since reset).
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Arm `site` with a mode string ("always" | "once" | "nth:<k>" | "off").
/// Throws std::invalid_argument for unknown sites or malformed modes.
void arm(const std::string& site, const std::string& mode);

/// Parse and apply a comma-separated "site=mode,..." spec (the
/// AWE_FAILPOINTS syntax).  Empty spec is a no-op.
void arm_from_spec(const std::string& spec);

/// Disarm every site and zero all hit counters.
void reset();

/// Check the site: returns true when an armed mode says to inject now.
/// Counts a check either way (see hits()).  The fast path is one relaxed
/// atomic load when nothing is armed.
inline bool fires(std::string_view site) {
  if (!enabled()) return false;
  return detail::fires_slow(site);
}

/// fires(), but throwing FailError(kInjectedFault) naming the site.
void maybe_fail(std::string_view site);

/// Number of times the site actually fired since the last reset().
std::size_t fire_count(std::string_view site);

}  // namespace awe::health::failpoints
