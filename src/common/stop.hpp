// Cooperative deadlines: a thread-local stop time that long-running work
// checks at its natural boundaries.
//
// FleetServer::execute installs a request's deadline with a StopScope; no
// one else sets one. Work that fans out reads stop_time() once on the
// calling thread and carries it: parallel loops (native strips, simulated
// blocks) compare against the value they captured. A check throws
// DeadlineExceeded once the stop has passed; with no stop set it is one
// thread-local load and a compare.
#pragma once

#include <algorithm>
#include <chrono>

#include "common/error.hpp"
#include "common/types.hpp"

namespace ispb {

using StopClock = std::chrono::steady_clock;
/// "No stop": every thread's stop time until a StopScope sets one.
inline constexpr StopClock::time_point kNoStop = StopClock::time_point::max();

namespace detail {
inline constinit thread_local StopClock::time_point t_stop = kNoStop;
}  // namespace detail

[[nodiscard]] inline StopClock::time_point stop_time() {
  return detail::t_stop;
}

/// Whether `stop` has passed; reads the clock only when a stop is set.
[[nodiscard]] inline bool stop_reached(StopClock::time_point stop) {
  return stop != kNoStop && StopClock::now() >= stop;
}

inline void check_stop(StopClock::time_point stop = stop_time()) {
  if (stop_reached(stop)) [[unlikely]] throw DeadlineExceeded();
}

/// `ms` capped at the milliseconds left before this thread's stop, rounded
/// up so that a capped sleep ends at or past the stop.
[[nodiscard]] inline u64 cap_to_stop(u64 ms) {
  if (stop_time() == kNoStop) return ms;
  const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                        stop_time() - StopClock::now())
                        .count();
  return left <= 0 ? 0 : std::min(ms, static_cast<u64>(left));
}

/// Sets this thread's stop time for the scope; StopScope(kNoStop) clears it.
class StopScope {
 public:
  explicit StopScope(StopClock::time_point stop) : prev_(detail::t_stop) {
    detail::t_stop = stop;
  }
  ~StopScope() { detail::t_stop = prev_; }
  StopScope(const StopScope&) = delete;
  StopScope& operator=(const StopScope&) = delete;

 private:
  StopClock::time_point prev_;
};

}  // namespace ispb
