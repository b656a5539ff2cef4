// test_thread_pool.cpp — the persistent worker pool and the spin
// barrier the sharded simulation kernel steps on.

#include "core/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace lain {
namespace {

TEST(ThreadPool, ParallelRunsEveryIndexExactlyOnce) {
  core::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(97);
  pool.parallel(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelResultsLandAtTheirIndex) {
  core::ThreadPool pool(3);
  std::vector<std::size_t> out(50, 0);
  pool.parallel(out.size(), [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ReusedAcrossParallelSections) {
  // The point of the pool: many sections, one set of workers.
  core::ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 20; ++round) {
    pool.parallel(10, [&](std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 200);
}

TEST(ThreadPool, RethrowsLowestIndexedException) {
  core::ThreadPool pool(4);
  try {
    pool.parallel(32, [](std::size_t i) {
      if (i % 2 == 1) throw std::runtime_error("job " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 1");
  }
  // The pool survives a failed section.
  std::atomic<int> ok{0};
  pool.parallel(8, [&](std::size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 8);
}

TEST(ThreadPool, PostRunsDetachedTask) {
  core::ThreadPool pool(1);
  std::atomic<bool> ran{false};
  std::mutex mu;
  std::condition_variable cv;
  // Set and notify under the lock: an unlocked notify can land between
  // the waiter's predicate check and its block, and be lost.
  pool.post([&] {
    std::lock_guard<std::mutex> lock(mu);
    ran = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return ran.load(); });
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  core::ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1);
}

TEST(SpinBarrier, KeepsThreadsInLockstep) {
  // Each of N threads bumps its phase counter between barrier
  // crossings; after every crossing all counters must agree — a
  // thread racing ahead would be caught by the assertion below.
  constexpr int kThreads = 4;
  constexpr int kPhases = 200;
  core::SpinBarrier barrier(kThreads);
  std::vector<std::atomic<int>> phase(kThreads);
  std::atomic<bool> in_lockstep{true};

  core::ThreadPool pool(kThreads);
  std::atomic<int> done{0};
  std::mutex mu;
  std::condition_variable cv;
  for (int t = 0; t < kThreads; ++t) {
    pool.post([&, t] {
      for (int p = 0; p < kPhases; ++p) {
        phase[t] = p;
        barrier.arrive_and_wait();
        // Between this crossing and the next, every thread is in
        // phase p: none may have advanced to p+1 yet.
        for (int u = 0; u < kThreads; ++u) {
          if (phase[u].load() != p) in_lockstep = false;
        }
        barrier.arrive_and_wait();
      }
      std::lock_guard<std::mutex> lock(mu);
      if (++done == kThreads) cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done.load() == kThreads; });
  EXPECT_TRUE(in_lockstep.load());
}

TEST(SpinBarrier, PublishesWritesAcrossTheCrossing) {
  // The release chain through the barrier must make pre-barrier
  // writes visible post-barrier (the property phase 2 of the sharded
  // step relies on to read phase-1 staging slots).
  constexpr int kRounds = 500;
  core::SpinBarrier barrier(2);
  int plain_value = 0;  // deliberately non-atomic
  std::atomic<bool> ok{true};
  std::atomic<bool> done{false};
  std::mutex mu;
  std::condition_variable cv;

  core::ThreadPool pool(1);
  pool.post([&] {
    for (int r = 1; r <= kRounds; ++r) {
      plain_value = r;
      barrier.arrive_and_wait();  // publish
      barrier.arrive_and_wait();  // wait for the check
    }
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_one();
  });
  for (int r = 1; r <= kRounds; ++r) {
    barrier.arrive_and_wait();
    if (plain_value != r) ok = false;
    barrier.arrive_and_wait();
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done.load(); });
  EXPECT_TRUE(ok.load());
}

}  // namespace
}  // namespace lain
