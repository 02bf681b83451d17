// Load-generation campaign against a running awe_serve daemon
// (DESIGN.md §16.6).  One code path computes the latency distribution for
// BOTH consumers — the awe_loadgen CLI and bench_serve_latency — so the
// committed perf baseline and the serve fault matrix can never disagree on
// what "p99" means.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace awe::serve::loadgen {

struct CampaignOptions {
  /// Exactly one of unix_path / port selects the transport.
  std::string unix_path;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  std::size_t connections = 4;
  std::size_t requests = 32;     ///< per connection (ignored with duration_ms)
  std::uint64_t duration_ms = 0; ///< nonzero: run for wall time instead

  std::string op = "eval";       ///< "ping" or "eval"
  std::size_t mc = 64;           ///< eval: server-side Monte Carlo points
  std::uint64_t deadline_ms = 0; ///< eval: per-request deadline (0 = none)
  bool summary = false;          ///< eval: summary-only responses
  std::uint64_t seed = 1;        ///< connection c uses seed + c
  std::uint64_t timeout_ms = 30'000;
};

struct CampaignResult {
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t errors = 0;
  std::vector<double> latencies_us;  ///< sorted ascending over all requests
  double elapsed_s = 0.0;
  bool transport_error = false;

  std::uint64_t requests() const {
    return static_cast<std::uint64_t>(latencies_us.size());
  }
  double requests_per_s() const {
    return elapsed_s > 0 ? static_cast<double>(latencies_us.size()) / elapsed_s
                         : 0.0;
  }
  /// Nearest-rank percentile of the latency distribution, in microseconds.
  double percentile_us(double p) const;
};

/// Run one campaign: `connections` threads, each with its own connection,
/// firing requests back-to-back.  Shed and deadline-expired responses are
/// VALID outcomes (they are what a daemon degrading under load looks
/// like); only transport errors and malformed responses set
/// `transport_error`.
CampaignResult run_campaign(const CampaignOptions& opt);

}  // namespace awe::serve::loadgen
