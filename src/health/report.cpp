#include "health/report.hpp"

#include <initializer_list>
#include <utility>

#include "text/json.hpp"

namespace awe::health {

void HealthReport::merge(const HealthReport& other) {
  for (std::size_t i = 0; i < kFailClassCount; ++i)
    fail_counts[i] += other.fail_counts[i];
  points_total += other.points_total;
  points_ok += other.points_ok;
  points_degraded += other.points_degraded;
  points_quarantined += other.points_quarantined;
  strict_reevals += other.strict_reevals;
  order_fallbacks += other.order_fallbacks;
  shifted_refits += other.shifted_refits;
  cache_corrupt_quarantined += other.cache_corrupt_quarantined;
  cache_rebuilds += other.cache_rebuilds;
  partition_blocks_reused += other.partition_blocks_reused;
  partition_blocks_built += other.partition_blocks_built;
  partition_blocks_quarantined += other.partition_blocks_quarantined;
  serve_requests += other.serve_requests;
  serve_shed += other.serve_shed;
  serve_deadline_expired += other.serve_deadline_expired;
  serve_evicted += other.serve_evicted;
  serve_reload_failures += other.serve_reload_failures;
  failpoint_fires += other.failpoint_fires;
}

std::string HealthReport::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::string out = "{";
  // One line per counter group: "name": {"key": n, ...},
  const auto group = [&](const char* name,
                         std::initializer_list<std::pair<const char*, std::uint64_t>> members) {
    out += '\n' + pad + "  ";
    json::append_quoted(out, name);
    out += ": {";
    const char* sep = "";
    for (const auto& [key, n] : members) {
      out += std::exchange(sep, ", ");
      json::append_quoted(out, key);
      out += ": ";
      json::append_uint(out, n);
    }
    out += "},";
  };
  group("points", {{"total", points_total}, {"ok", points_ok},
                   {"degraded", points_degraded}, {"quarantined", points_quarantined}});
  group("ladder", {{"strict_reevals", strict_reevals}, {"order_fallbacks", order_fallbacks},
                   {"shifted_refits", shifted_refits}});
  group("cache", {{"corrupt_quarantined", cache_corrupt_quarantined},
                  {"rebuilds", cache_rebuilds}});
  group("partition_blocks", {{"reused", partition_blocks_reused},
                             {"built", partition_blocks_built},
                             {"quarantined", partition_blocks_quarantined}});
  group("serve", {{"requests", serve_requests}, {"shed", serve_shed},
                  {"deadline_expired", serve_deadline_expired}, {"evicted", serve_evicted},
                  {"reload_failures", serve_reload_failures}});
  out += '\n' + pad + "  \"failpoint_fires\": ";
  json::append_uint(out, failpoint_fires);
  out += ",\n" + pad + "  \"fail_classes\": {";
  // kNone is a non-event; every real class appears, fired or not.
  for (std::size_t i = 1; i < kFailClassCount; ++i) {
    out += (i > 1 ? ",\n" : "\n") + pad + "    ";
    json::append_quoted(out, code(static_cast<FailClass>(i)));
    out += ": ";
    json::append_uint(out, fail_counts[i]);
  }
  out += '\n' + pad + "  }\n" + pad + "}";
  return out;
}

GlobalCounters& global_counters() {
  static GlobalCounters g;
  return g;
}

void absorb_global_counters(HealthReport& report) {
  const GlobalCounters& g = global_counters();
  report.cache_corrupt_quarantined =
      g.cache_corrupt_quarantined.load(std::memory_order_relaxed);
  report.cache_rebuilds = g.cache_rebuilds.load(std::memory_order_relaxed);
  report.failpoint_fires = g.failpoint_fires.load(std::memory_order_relaxed);
  report.partition_blocks_reused =
      g.partition_blocks_reused.load(std::memory_order_relaxed);
  report.partition_blocks_built =
      g.partition_blocks_built.load(std::memory_order_relaxed);
  report.partition_blocks_quarantined =
      g.partition_blocks_quarantined.load(std::memory_order_relaxed);
}

}  // namespace awe::health
