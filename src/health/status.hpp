// Structured failure taxonomy for the evaluation pipeline (DESIGN.md §11).
//
// AWE's Padé-via-moments step is numerically fragile by construction: the
// Hankel moment systems go ill-conditioned and poles go unstable at the
// edges of exactly the parameter ranges a Monte-Carlo sweep explores.  A
// serving path must degrade per point, never abort per sweep — which
// requires every failure to carry a machine-readable class, not just a
// what() string.  FailError is the typed exception the numeric layers
// throw; it derives from std::runtime_error so call sites that predate the
// taxonomy keep working unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>

namespace awe::health {

/// Why a point / build / cache probe failed.  JSON health reports, the
/// wire protocol and fuzz signatures carry code(), never the numeric
/// value; append new classes at the end.
enum class FailClass : std::uint8_t {
  kNone = 0,              ///< no failure
  kSingularY0 = 1,        ///< det(Y0) == 0 / zero reciprocal symbol / DC-singular MNA
  kHankelIllConditioned = 2,  ///< singular or degenerate Hankel moment system
  kOrderCollapse = 3,     ///< no feasible Padé order at all
  kAllPolesUnstable = 4,  ///< stability filter discarded every pole
  kNonFiniteEval = 5,     ///< evaluation produced NaN/Inf moments
  kCacheCorrupt = 6,      ///< persistent cache entry failed validation
  kInjectedFault = 7,     ///< a failpoint fired (testing only)
  kTaskException = 8,     ///< a thread-pool task died; point never processed
  kUnknown = 9,           ///< classified failure of unrecognized origin
  kModelFormat = 10,      ///< model blob rejected: endianness/alignment/layout guard
  kDeadline = 11,         ///< request deadline expired; evaluation cancelled mid-sweep
  kOverload = 12,         ///< request shed by admission control (queue/byte limits)
};

inline constexpr std::size_t kFailClassCount = 13;

/// Long human-readable name ("Hankel system ill-conditioned").
const char* to_string(FailClass c);

/// Stable short code ("hankel-ill-conditioned") used in JSON reports and
/// fuzz mismatch signatures.
const char* code(FailClass c);

/// Coded outcome for APIs that report instead of throw.
struct Status {
  FailClass fail_class = FailClass::kNone;
  std::string message;
  bool ok() const { return fail_class == FailClass::kNone; }
  static Status success() { return {}; }
  static Status failure(FailClass c, std::string msg) {
    return {c, std::move(msg)};
  }
};

/// Typed failure thrown by the numeric layers (Padé fit, ROM stability
/// filter, partition moment solve, failpoints).  Derives std::runtime_error
/// so pre-taxonomy catch sites and EXPECT_THROW(..., std::runtime_error)
/// assertions keep holding.
class FailError : public std::runtime_error {
 public:
  FailError(FailClass c, const std::string& message)
      : std::runtime_error(message), class_(c) {}
  FailClass fail_class() const { return class_; }

 private:
  FailClass class_;
};

/// FailError -> its class; any other exception -> kUnknown.
FailClass fail_class_of(const std::exception& e);

}  // namespace awe::health

namespace awe {
using health::FailClass;
using health::Status;
}  // namespace awe
