#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace mc {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0)
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::stop() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_)
    if (w.joinable()) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      // The predicate runs with mutex_ held (condition_variable_any
      // re-acquires before each evaluation), but the analysis cannot see
      // through wait()'s unlock/relock cycle — hence the escape hatch.
      cv_.wait(mutex_, [this]() MC_NO_THREAD_SAFETY_ANALYSIS {
        return stopping_ || !queue_.empty();
      });
      // Drain pending work even when stopping: tasks accepted by submit()
      // must run so their futures resolve.
      if (queue_.empty()) return;  // implies stopping_
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;

  // Dynamic claiming: the caller and up to size() queued helpers each
  // take the next unclaimed index from one shared counter until none is
  // left, so an expensive body holds up only its own claimant while the
  // others drain the rest. Queueing O(workers) tasks instead of O(n)
  // keeps the per-item cost at one atomic increment for fine-grained
  // bodies (per-tx signature checks), and caller participation means a
  // 1-worker pool costs one enqueue, not a blocking round-trip per item.
  // Every index is still attempted even when some bodies throw; the
  // lowest-index exception is rethrown after every claimant finishes.
  struct Failure {
    std::size_t index;
    std::exception_ptr error;
  };
  std::atomic<std::size_t> next{0};
  const auto drain = [&next, n, &fn]() -> Failure {
    // Claims ascend, so a claimant's first failure is its lowest.
    Failure first{n, nullptr};
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        if (first.error == nullptr) first = {i, std::current_exception()};
      }
    }
    return first;
  };

  const std::size_t helpers = std::min(n - 1, workers_.size());
  std::vector<std::future<Failure>> futures;
  futures.reserve(helpers);
  try {
    for (std::size_t h = 0; h < helpers; ++h)
      futures.push_back(submit(drain));
  } catch (...) {
    // The pool is stopping. Helpers already queued still run, and they
    // reference this frame, so wait for them before leaving it.
    for (auto& f : futures) f.wait();
    throw;
  }

  Failure first = drain();
  for (auto& f : futures) {
    const Failure helper = f.get();
    if (helper.index < first.index) first = helper;
  }
  if (first.error != nullptr) std::rethrow_exception(first.error);
}

}  // namespace mc
