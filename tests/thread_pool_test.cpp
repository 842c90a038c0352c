// ThreadPool edge cases: submit-after-stop, exception propagation through
// futures, degenerate, throwing and uneven parallel_for bodies, destructor
// draining.
// These run in every sanitizer preset (see CMakePresets.json).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace mc {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  auto doubled = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(doubled.get(), 42);
}

TEST(ThreadPool, TaskExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto failing = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(failing.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsANoOp) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ParallelForRethrowsAfterAllBodiesFinish) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  const std::size_t n = 64;
  try {
    pool.parallel_for(n, [&](std::size_t i) {
      if (i % 8 == 3) throw std::runtime_error("body " + std::to_string(i));
      ++completed;
    });
    FAIL() << "parallel_for swallowed the body exception";
  } catch (const std::runtime_error& e) {
    // Every non-throwing body must have run to completion before the
    // rethrow — parallel_for may not abandon stragglers.
    EXPECT_EQ(completed.load(), static_cast<int>(n - n / 8));
    // Whichever claimant hit it, the lowest throwing index wins.
    EXPECT_STREQ(e.what(), "body 3");
  }
}

TEST(ThreadPool, ParallelForSlowIndexDoesNotStallTheRest) {
  // Index 0 stays busy until every other index has run (or a generous
  // deadline passes). Under dynamic claiming the other claimants drain
  // the rest meanwhile; a fixed split would park indices behind it on the
  // same thread and the wait would time out.
  ThreadPool pool(4);
  const std::size_t n = 200;
  std::vector<std::atomic<int>> hits(n);
  std::atomic<std::size_t> others_done{0};
  bool drained_while_slow = false;
  pool.parallel_for(n, [&](std::size_t i) {
    ++hits[i];
    if (i != 0) {
      ++others_done;
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (others_done.load() < n - 1 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    drained_while_slow = others_done.load() == n - 1;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_TRUE(drained_while_slow);
}

TEST(ThreadPool, SubmitAfterStopThrows) {
  ThreadPool pool(2);
  auto before = pool.submit([] { return 1; });
  EXPECT_EQ(before.get(), 1);
  pool.stop();
  EXPECT_THROW(pool.submit([] { return 2; }), std::runtime_error);
  pool.stop();  // idempotent
}

TEST(ThreadPool, DestructorDrainsPendingWork) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    // Head task blocks the lone worker; the rest pile up in the queue and
    // must still execute during destruction.
    for (int i = 0; i < 16; ++i)
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++ran;
      });
  }
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, SizeAndPendingReporting) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.pending(), 0u);
}

}  // namespace
}  // namespace mc
