// Fixed-size worker pool shared by the off-chain analytics fan-out, the
// block validator's signature batches and the execution waves.
//
// The transformed architecture runs one analytics task per data site in
// parallel; sites map onto pool workers. Task submission is thread-safe.
// parallel_for hands indices out one at a time from a shared counter, so
// bodies of uneven cost (a costly contract run beside a cheap one) spread
// across the pool instead of stalling on a fixed split.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace mc {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Stop accepting work, drain the queue and join the workers.
  /// Idempotent; the destructor calls it. After stop(), submit() throws.
  void stop();

  /// Schedule a task; the future resolves with its result or exception.
  /// Throws std::runtime_error once the pool is stopping/stopped.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      MutexLock lock(mutex_);
      if (stopping_) throw std::runtime_error("submit on stopped ThreadPool");
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run fn(i) exactly once for each i in [0, n) and wait for completion.
  /// The caller and up to size() workers claim indices dynamically, in
  /// ascending order. Every body finishes (or is observed failed) before
  /// this returns; if any body threw, the exception of the lowest
  /// throwing index is rethrown afterwards.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Tasks queued but not yet claimed by a worker (diagnostic).
  [[nodiscard]] std::size_t pending() const {
    MutexLock lock(mutex_);
    return queue_.size();
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_ MC_GUARDED_BY(mutex_);
  mutable Mutex mutex_;
  // condition_variable_any waits on the annotated Mutex directly (it is
  // BasicLockable), keeping the wait visible to clang -Wthread-safety.
  std::condition_variable_any cv_;
  bool stopping_ MC_GUARDED_BY(mutex_) = false;
};

}  // namespace mc
