#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

namespace ispb {

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  ISPB_EXPECTS(task != nullptr);
  {
    std::lock_guard lock(mutex_);
    ISPB_EXPECTS(!shutting_down_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_available_.wait(
          lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutting down
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    // A throwing task must neither take down the process (an exception
    // escaping a thread's start function is std::terminate) nor skip the
    // in_flight_ decrement below (wait_idle would deadlock). The pool has
    // no channel to deliver the error, so it is dropped; callers that care
    // catch inside the task — as parallel_for does.
    try {
      task();
    } catch (...) {
    }
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(i64 begin, i64 end, const std::function<void(i64)>& body,
                  i64 grain) {
  ISPB_EXPECTS(grain >= 1);
  if (end <= begin) return;

  ThreadPool& pool = ThreadPool::global();
  const i64 count = end - begin;
  const i64 min_parallel = grain * 2;
  if (pool.size() <= 1 || count < min_parallel) {
    for (i64 i = begin; i < end; ++i) body(i);
    return;
  }

  const i64 chunks = std::min<i64>(pool.size() * 4, count / grain);
  const i64 chunk_size = (count + chunks - 1) / chunks;

  // Joins on this call's chunks only: the global pool is shared, and
  // waiting for it to go idle would make concurrent callers wait for each
  // other's work.
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex mutex;
  std::condition_variable done;
  i64 pending = (count + chunk_size - 1) / chunk_size;

  for (i64 lo = begin; lo < end; lo += chunk_size) {
    const i64 hi = std::min(end, lo + chunk_size);
    pool.submit([&, lo, hi] {
      std::exception_ptr error;
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          for (i64 i = lo; i < hi; ++i) body(i);
        } catch (...) {
          error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      }
      // Notify under the lock: the caller may return (and destroy `done`)
      // as soon as it can observe pending == 0.
      std::lock_guard lock(mutex);
      if (error && !first_error) first_error = error;
      if (--pending == 0) done.notify_all();
    });
  }
  std::unique_lock lock(mutex);
  done.wait(lock, [&] { return pending == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace ispb
