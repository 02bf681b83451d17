#include "health/status.hpp"

namespace awe::health {

const char* to_string(FailClass c) {
  switch (c) {
    case FailClass::kNone: return "no failure";
    case FailClass::kSingularY0: return "singular DC admittance matrix";
    case FailClass::kHankelIllConditioned: return "Hankel system ill-conditioned";
    case FailClass::kOrderCollapse: return "no feasible Pade order";
    case FailClass::kAllPolesUnstable: return "all Pade poles unstable";
    case FailClass::kNonFiniteEval: return "non-finite evaluation";
    case FailClass::kCacheCorrupt: return "cache entry corrupt";
    case FailClass::kInjectedFault: return "injected fault";
    case FailClass::kTaskException: return "task exception";
    case FailClass::kUnknown: return "unknown failure";
    case FailClass::kModelFormat: return "model format rejected";
    case FailClass::kDeadline: return "request deadline expired";
    case FailClass::kOverload: return "request shed under overload";
  }
  return "?";
}

const char* code(FailClass c) {
  switch (c) {
    case FailClass::kNone: return "none";
    case FailClass::kSingularY0: return "singular-y0";
    case FailClass::kHankelIllConditioned: return "hankel-ill-conditioned";
    case FailClass::kOrderCollapse: return "order-collapse";
    case FailClass::kAllPolesUnstable: return "all-poles-unstable";
    case FailClass::kNonFiniteEval: return "non-finite-eval";
    case FailClass::kCacheCorrupt: return "cache-corrupt";
    case FailClass::kInjectedFault: return "injected-fault";
    case FailClass::kTaskException: return "task-exception";
    case FailClass::kUnknown: return "unknown";
    case FailClass::kModelFormat: return "model-format";
    case FailClass::kDeadline: return "deadline";
    case FailClass::kOverload: return "overloaded";
  }
  return "?";
}

FailClass fail_class_of(const std::exception& e) {
  if (const auto* fe = dynamic_cast<const FailError*>(&e)) return fe->fail_class();
  return FailClass::kUnknown;
}

}  // namespace awe::health
