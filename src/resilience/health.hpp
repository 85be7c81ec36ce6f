// HealthState: one self-describing snapshot of the serving stack's
// resilience machinery — what an operator (or the chaos harness) polls to
// see whether the server is degraded and why.
#pragma once

#include <vector>

#include "resilience/circuit_breaker.hpp"

namespace ispb::resilience {

struct HealthState {
  /// Every breaker the server has touched, sorted by kernel name.
  std::vector<BreakerSnapshot> breakers;

  u64 retries = 0;            ///< stage attempts beyond the first
  u64 fallbacks_served = 0;   ///< requests answered by the naive fallback
  u64 watchdog_expired = 0;   ///< executions cut at a stop check
  u64 queue_expired = 0;      ///< requests expired while still queued

  /// Degraded = any breaker not closed.
  [[nodiscard]] bool degraded() const {
    for (const BreakerSnapshot& b : breakers) {
      if (b.state != BreakerState::kClosed) return true;
    }
    return false;
  }
};

}  // namespace ispb::resilience
