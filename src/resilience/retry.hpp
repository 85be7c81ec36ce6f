// Bounded retry with exponential backoff and decorrelated jitter.
//
// The backoff schedule follows the "decorrelated jitter" recipe (AWS
// architecture blog): sleep(n) = min(cap, uniform(base, 3 * sleep(n-1))).
// It spreads retries of competing clients apart better than plain
// exponential-with-jitter while keeping the expected growth exponential.
//
// Determinism: the uniform draw comes from a SplitMix64 hash of
// (policy seed, attempt index) — a pure function, so the same policy
// produces the same schedule every run — and sleeping goes through the
// injectable Clock, so tests with a VirtualClock never touch the wall
// clock. ContractError and VerifyError are never retried: they are
// programming errors, not transient conditions, and retrying them only
// delays the report. Nor is DeadlineExceeded: a cut request stays cut, and
// a back-off sleep never runs past the request's stop (common/stop.hpp).
#pragma once

#include <algorithm>
#include <type_traits>

#include "common/error.hpp"
#include "common/stop.hpp"
#include "common/types.hpp"
#include "obs/trace.hpp"
#include "resilience/clock.hpp"

namespace ispb::resilience {

struct RetryPolicy {
  /// Total tries including the first; 1 disables retrying.
  u32 max_attempts = 1;
  u64 base_delay_ms = 1;   ///< lower bound of every backoff sleep
  u64 max_delay_ms = 100;  ///< cap on a single backoff sleep
  u64 seed = 0;            ///< jitter stream selector

  [[nodiscard]] bool enabled() const { return max_attempts > 1; }

  /// The deterministic backoff before attempt `attempt` (1-based: the sleep
  /// after the attempt-th failure). `prev_ms` is the previous sleep (pass
  /// base_delay_ms before the first).
  [[nodiscard]] u64 backoff_ms(u32 attempt, u64 prev_ms) const;
};

/// Outcome counters of one retry_call (published by the caller).
struct RetryOutcome {
  u32 attempts = 0;     ///< attempts actually made
  u64 backoff_ms = 0;   ///< total time slept between attempts
  bool succeeded = false;
};

/// Runs `fn` up to policy.max_attempts times, sleeping the decorrelated-
/// jitter backoff on `clock` between attempts. Rethrows the last error when
/// every attempt failed; never retries ContractError/VerifyError (logic
/// errors are permanent) or DeadlineExceeded (a cut). `outcome`, when
/// non-null, receives the counters even on failure (written before the
/// rethrow).
template <typename Fn>
auto retry_call(const RetryPolicy& policy, Clock* clock, Fn&& fn,
                RetryOutcome* outcome = nullptr) -> decltype(fn()) {
  RetryOutcome local;
  RetryOutcome& out = outcome != nullptr ? *outcome : local;
  out = RetryOutcome{};
  u64 prev_ms = policy.base_delay_ms;
  const u32 attempts = std::max<u32>(1, policy.max_attempts);
  for (u32 attempt = 1;; ++attempt) {
    ++out.attempts;
    try {
      if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        out.succeeded = true;
        return;
      } else {
        auto result = fn();
        out.succeeded = true;
        return result;
      }
    } catch (const ContractError&) {
      throw;
    } catch (const VerifyError&) {
      throw;
    } catch (const DeadlineExceeded&) {
      throw;
    } catch (...) {
      if (attempt >= attempts) throw;
      const u64 sleep = policy.backoff_ms(attempt, prev_ms);
      prev_ms = sleep;
      out.backoff_ms += sleep;
      // Span so a slow request's retry-backoff time is attributable in its
      // trace tree (request_breakdown's retry_backoff_us category).
      obs::ScopedSpan backoff_span("resilience.retry.backoff", "resilience");
      backoff_span.arg("attempt", static_cast<i64>(attempt));
      clock_or_system(clock).sleep_ms(cap_to_stop(sleep));
      check_stop();
    }
  }
}

}  // namespace ispb::resilience
