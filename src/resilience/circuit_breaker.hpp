// Per-kernel circuit breaker: the runtime generalization of the paper's
// isp+m static fallback.
//
// The isp+m variant already abandons the specialized ISP fat kernel when
// the analytic model predicts G <= 1 (Eq. (10)) — a *static* decision that
// the optimization must be safely abandonable. The breaker extends that
// contract to runtime failures: after `failure_threshold` consecutive
// failures of a kernel's specialized path the breaker *opens* and the
// executor serves the naive variant directly (no doomed ISP attempt, no
// retry burn-down). After `open_cooldown_ms` on the injected Clock the
// breaker goes *half-open* and admits a limited number of probe attempts;
// one probe success closes it (ISP restored), one probe failure re-opens
// it for another cooldown.
//
//             failure_threshold consecutive failures
//   kClosed ------------------------------------------> kOpen
//      ^                                                  | cooldown elapsed
//      | probe success                                    v
//      +----------------------------------------------- kHalfOpen
//                        probe failure -> kOpen
//
// Breakers are keyed by kernel name in a BreakerRegistry shared by every
// worker of a server; all transitions are under one mutex (transition rates
// are bounded by failure rates, so contention is irrelevant).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "resilience/clock.hpp"

namespace ispb::resilience {

enum class BreakerState : u8 { kClosed, kOpen, kHalfOpen };
[[nodiscard]] std::string_view to_string(BreakerState s);

struct BreakerConfig {
  u32 failure_threshold = 3;  ///< consecutive failures that trip the breaker
  u64 open_cooldown_ms = 1000;  ///< open duration before half-open probing
  u32 half_open_probes = 1;  ///< specialized attempts admitted while probing
};

/// Point-in-time view of one breaker (HealthState building block).
struct BreakerSnapshot {
  std::string kernel;
  BreakerState state = BreakerState::kClosed;
  u32 consecutive_failures = 0;
  u64 trips = 0;            ///< closed/half-open -> open transitions
  u64 short_circuits = 0;   ///< allow() == false decisions served naive
  u64 probes = 0;           ///< half-open specialized attempts admitted
};

class CircuitBreaker {
 public:
  CircuitBreaker(std::string kernel, BreakerConfig config, Clock* clock);

  /// May the caller attempt the specialized (ISP) path now? False means
  /// serve the naive fallback without trying. Open -> half-open happens
  /// here once the cooldown elapses.
  [[nodiscard]] bool allow();

  /// Report the outcome of a specialized attempt admitted by allow().
  void record_success();
  void record_failure();
  /// Ends an attempt admitted by allow() without a verdict (it was cut by
  /// its deadline): a half-open probe frees its slot, nothing else changes.
  void release();

  [[nodiscard]] BreakerSnapshot snapshot() const;

 private:
  const std::string kernel_;
  const BreakerConfig config_;
  Clock* clock_;

  mutable std::mutex mu_;
  BreakerState state_ = BreakerState::kClosed;
  u32 consecutive_failures_ = 0;
  u32 probes_in_flight_ = 0;
  u64 opened_at_ms_ = 0;
  u64 trips_ = 0;
  u64 short_circuits_ = 0;
  u64 probes_ = 0;
};

/// Thread-safe map of kernel name -> breaker, shared per server.
class BreakerRegistry {
 public:
  explicit BreakerRegistry(BreakerConfig config = {}, Clock* clock = nullptr);

  BreakerRegistry(const BreakerRegistry&) = delete;
  BreakerRegistry& operator=(const BreakerRegistry&) = delete;

  /// The breaker for `kernel`, created closed on first use.
  [[nodiscard]] CircuitBreaker& get(std::string_view kernel);

  /// Snapshots of every breaker, sorted by kernel name.
  [[nodiscard]] std::vector<BreakerSnapshot> snapshot() const;

 private:
  const BreakerConfig config_;
  Clock* clock_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<CircuitBreaker>, std::less<>> breakers_;
};

}  // namespace ispb::resilience
