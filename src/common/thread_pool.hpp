// A small work-stealing-free thread pool with a parallel_for helper.
//
// The CPU reference backend and the GPU simulator both parallelize over
// independent tiles/threadblocks. A shared pool avoids thread churn and keeps
// determinism: tasks never communicate, so scheduling order cannot change
// results.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace ispb {

/// Fixed-size thread pool executing fire-and-forget tasks.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means `hardware_concurrency()`.
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw; exceptions would otherwise
  /// terminate a worker. Use `parallel_for` for exception-safe loops.
  void submit(std::function<void()> task);

  /// Blocks until all submitted tasks have finished.
  void wait_idle();

  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Process-wide pool, sized to the hardware.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

/// Runs `body(i)` for i in [begin, end) across the global pool, splitting the
/// range into contiguous chunks. Returns once this call's chunks are done;
/// it never waits for other callers' tasks on the pool. Rethrows the first
/// exception thrown by any chunk. Falls back to a serial loop for tiny
/// ranges or a 1-thread pool.
void parallel_for(i64 begin, i64 end, const std::function<void(i64)>& body,
                  i64 grain = 1);

}  // namespace ispb
