// Wire protocol of the evaluation daemon (DESIGN.md §16).
//
// One request per line, one response line per request, both JSON objects.
// Requests carry {"op": "..."} plus op-specific fields; every response
// carries {"ok": true|false, "op": ...} and, on failure, a stable machine
// code in "error" (see ErrorCode) with a human "message".  The protocol
// layer is pure data — it never touches sockets — so tests can exercise
// request validation and response shapes without a daemon.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "serve/json.hpp"

namespace awe::serve {

/// Stable machine-readable error codes ("error" field of a failure
/// response).  Wire-frozen: clients and the CI robustness matrix match on
/// these strings.
namespace errors {
inline constexpr const char* kBadRequest = "bad_request";    ///< malformed JSON / fields
inline constexpr const char* kOverloaded = "overloaded";     ///< shed by admission control
inline constexpr const char* kDeadline = "deadline";         ///< deadline expired pre-eval
inline constexpr const char* kUnavailable = "unavailable";   ///< draining or wedged
inline constexpr const char* kReloadFailed = "reload_failed";///< model reload gave up
inline constexpr const char* kInternal = "internal";         ///< contained server fault
}  // namespace errors

/// Malformed request; message is safe to echo to the client.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class Op : std::uint8_t {
  kPing,    ///< liveness + round-trip anchor; answered inline by the reader
  kInfo,    ///< model identity: symbols, order, generation
  kStatus,  ///< ServeStats + HealthReport + queue/pin observability
  kEval,    ///< run a sweep against the pinned current generation
  kReload,  ///< rebuild from the deck and publish a new generation
  kSleep,   ///< debug (--debug-ops): occupy a worker slot for N ms
};

struct EvalRequest {
  /// Explicit points, point-major as received ([[v0,v1,..],[..],..]),
  /// already transposed to SoA (symbol-major) by parse_request.
  std::vector<double> points_soa;
  std::size_t num_points = 0;
  /// Monte Carlo alternative: sample `mc` points server-side around the
  /// deck's nominal values (seeded, deterministic).  Exclusive with points.
  std::size_t mc = 0;
  std::uint64_t seed = 42;
  std::uint64_t deadline_ms = 0;  ///< 0 = server default
  bool summary = false;           ///< stats only; omit per-point moments
  /// Debug (--debug-ops only): expire the request's CancelToken on the
  /// n-th engine poll — the deterministic "deadline hits exactly mid-
  /// sweep" the robustness tests need without wall-clock races.
  std::uint64_t cancel_after_checks = 0;
};

struct Request {
  Op op = Op::kPing;
  std::optional<std::uint64_t> id;  ///< echoed verbatim in the response
  EvalRequest eval;                 ///< op == kEval
  std::uint64_t sleep_ms = 0;       ///< op == kSleep
};

/// Validate and decode one request line.  `num_symbols` checks eval point
/// arity; `max_points` bounds both explicit and mc point counts.  Throws
/// ProtocolError (client-safe message) on anything malformed.
Request parse_request(const std::string& line, std::size_t num_symbols,
                      std::size_t max_points);

const char* to_string(Op op);

/// {"ok":false,"op":OP,"error":CODE,"message":MSG[,"id":ID][,"retry_after_ms":N]}
std::string error_response(const char* op, const char* code, const std::string& message,
                           std::optional<std::uint64_t> id = std::nullopt,
                           std::uint64_t retry_after_ms = 0);

/// {"ok":true,"op":OP,...fields...}  — `body` is appended verbatim after
/// the fixed prefix; pass fields pre-serialized ( ",\"k\":v" form).
std::string ok_response(const char* op, std::optional<std::uint64_t> id,
                        std::string_view body);

/// Append {"ok":true,"op":OP[,"id":ID] to `out`: a large response is built
/// in one buffer by appending its fields and the closing '}' after this.
void append_ok_prefix(std::string& out, const char* op, std::optional<std::uint64_t> id);

}  // namespace awe::serve
