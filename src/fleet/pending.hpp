// Pending<T>: what FleetServer::submit and PipelineServer::submit return —
// a move-only handle on the request's future plus a poll budget fixed at
// submit.
//
// get() polls the future for up to that budget before it parks on it. A
// parked caller is woken through a futex, and on a VM that wake took ~5 µs
// of a ~20 µs served 128² request (EXPERIMENTS.md "Caller poll"); a caller
// still polling when the worker settles sees the response at once, and the
// settle needs no wake-up. The fleet grants the budget (its
// kSpinWindow) only when the request went straight to a free worker and
// recent executions were short enough to finish inside the window;
// otherwise it is 0 and get() parks at once, as std::future::get does. A
// caller that calls get() on a settled request returns at once either way,
// so open-loop callers pay nothing.
//
// wait(), wait_for() and valid() are std::future's: they never poll.
#pragma once

#include <chrono>
#include <future>
#include <thread>
#include <utility>

#include "common/types.hpp"

namespace ispb::fleet {

/// One step of a spin-wait: a pause instruction on x86 (the core yields to
/// its sibling hyperthread and the loop exits without a memory-order
/// flush), a yield elsewhere.
void spin_pause() noexcept;

template <typename T>
class Pending {
 public:
  Pending(std::future<T> future, std::chrono::nanoseconds poll_budget)
      : future_(std::move(future)), poll_budget_(poll_budget) {}

  /// Polls for up to poll_budget(), then parks until the request settles;
  /// returns its response. Like std::future::get, valid() is false after.
  [[nodiscard]] T get() {
    poll();
    return future_.get();
  }

  [[nodiscard]] bool valid() const noexcept { return future_.valid(); }
  void wait() const { future_.wait(); }
  template <typename Rep, typename Period>
  [[nodiscard]] std::future_status wait_for(
      const std::chrono::duration<Rep, Period>& rel) const {
    return future_.wait_for(rel);
  }

  /// How long get() polls before it parks: the fleet's kSpinWindow or 0.
  [[nodiscard]] std::chrono::nanoseconds poll_budget() const noexcept {
    return poll_budget_;
  }

 private:
  /// Pauses between yields of the CPU while get() polls (an x86 pause
  /// takes about 10-150 cycles, so a few µs at most), so on a one-core
  /// spell the worker that must settle the request gets to run.
  static constexpr u32 kPausesPerYield = 32;

  void poll() const {
    if (poll_budget_ <= std::chrono::nanoseconds::zero()) return;
    using Clock = std::chrono::steady_clock;
    const Clock::time_point until = Clock::now() + poll_budget_;
    for (u32 i = 1; future_.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready;
         ++i) {
      if (i % kPausesPerYield != 0) {
        spin_pause();
        continue;
      }
      if (Clock::now() >= until) return;
      std::this_thread::yield();
    }
  }

  std::future<T> future_;
  std::chrono::nanoseconds poll_budget_{0};
};

}  // namespace ispb::fleet
