#include "health/failpoints.hpp"

#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "health/report.hpp"

namespace awe::health::failpoints {

namespace {

constexpr const char* kAllSites[] = {
    sites::kLuSingular,         sites::kSparseSingular,
    sites::kPartitionMomentSolve, sites::kCacheStoreTruncate,
    sites::kCacheStoreBitflip,  sites::kCacheStoreCrash,
    sites::kCacheLoadCorrupt,   sites::kThreadPoolTask,
    sites::kPartitionBlock,     sites::kServeAccept,
    sites::kServeRead,          sites::kServeSwap,
};

enum class Mode : std::uint8_t { kOff, kAlways, kOnce, kNth };

struct SiteState {
  Mode mode = Mode::kOff;
  std::size_t nth = 0;     ///< 1-based check index to fire on (Mode::kNth)
  std::size_t checks = 0;  ///< fires()/maybe_fail() calls since reset
  std::size_t fired = 0;   ///< times the site actually injected
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, SiteState> sites;
  std::size_t armed = 0;  ///< sites with mode != kOff
};

Registry& registry() {
  static Registry r;
  return r;
}

bool known_site(std::string_view site) {
  for (const char* s : kAllSites)
    if (site == s) return true;
  return false;
}

/// One-time AWE_FAILPOINTS pickup.  Runs on the first check/arm, not at
/// static-init time, so arming order vs other globals never matters.
void ensure_env_loaded() {
  static const bool loaded = [] {
    if (const char* spec = std::getenv("AWE_FAILPOINTS")) arm_from_spec(spec);
    return true;
  }();
  (void)loaded;
}

}  // namespace

namespace detail {

std::atomic<bool> g_enabled{std::getenv("AWE_FAILPOINTS") != nullptr};

bool fires_slow(std::string_view site) {
  ensure_env_loaded();
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.sites.find(std::string(site));
  if (it == r.sites.end()) return false;
  SiteState& s = it->second;
  ++s.checks;
  bool fire = false;
  switch (s.mode) {
    case Mode::kOff: break;
    case Mode::kAlways: fire = true; break;
    case Mode::kOnce:
      fire = true;
      s.mode = Mode::kOff;
      --r.armed;
      break;
    case Mode::kNth:
      if (s.checks == s.nth) {
        fire = true;
        s.mode = Mode::kOff;
        --r.armed;
      }
      break;
  }
  if (fire) {
    ++s.fired;
    global_counters().failpoint_fires.fetch_add(1, std::memory_order_relaxed);
  }
  return fire;
}

}  // namespace detail

std::vector<std::string> registered_sites() {
  return {std::begin(kAllSites), std::end(kAllSites)};
}

void arm(const std::string& site, const std::string& mode) {
  if (!known_site(site))
    throw std::invalid_argument("failpoints: unknown site '" + site + "'");
  SiteState next;
  if (mode == "off") {
    next.mode = Mode::kOff;
  } else if (mode == "always") {
    next.mode = Mode::kAlways;
  } else if (mode == "once") {
    next.mode = Mode::kOnce;
  } else if (mode.rfind("nth:", 0) == 0) {
    next.mode = Mode::kNth;
    next.nth = std::strtoull(mode.c_str() + 4, nullptr, 10);
    if (next.nth == 0)
      throw std::invalid_argument("failpoints: nth:<k> needs k >= 1 in '" + mode + "'");
  } else {
    throw std::invalid_argument("failpoints: bad mode '" + mode +
                                "' (want off|always|once|nth:<k>)");
  }
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  SiteState& s = r.sites[site];
  const bool was_armed = s.mode != Mode::kOff;
  const bool now_armed = next.mode != Mode::kOff;
  s.mode = next.mode;
  s.nth = next.nth;
  s.checks = 0;
  if (!was_armed && now_armed) ++r.armed;
  if (was_armed && !now_armed) --r.armed;
  detail::g_enabled.store(r.armed > 0, std::memory_order_relaxed);
}

void arm_from_spec(const std::string& spec) {
  std::size_t start = 0;
  while (start < spec.size()) {
    std::size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(start, comma - start);
    start = comma + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("failpoints: bad spec entry '" + entry +
                                  "' (want site=mode)");
    arm(entry.substr(0, eq), entry.substr(eq + 1));
  }
}

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.sites.clear();
  r.armed = 0;
  detail::g_enabled.store(false, std::memory_order_relaxed);
}

void maybe_fail(std::string_view site) {
  if (fires(site))
    throw FailError(FailClass::kInjectedFault,
                    "injected fault at failpoint '" + std::string(site) + "'");
}

std::size_t fire_count(std::string_view site) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.sites.find(std::string(site));
  return it == r.sites.end() ? 0 : it->second.fired;
}

}  // namespace awe::health::failpoints
