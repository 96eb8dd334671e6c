// Tests for the ThreadPool primitive: the pool runs every submitted job,
// clamps its worker count to at least one, accepts submissions from inside
// a job and is reusable across wait_idle() cycles.
#include <gtest/gtest.h>

#include <atomic>

#include "runtime/thread_pool.hpp"

namespace redist {
namespace {

TEST(ThreadPool, RunsAllJobs) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleThenReuse) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), (round + 1) * 20);
  }
}

TEST(ThreadPool, SingleThreadAndClamping) {
  ThreadPool pool(0);  // clamped to one worker
  EXPECT_EQ(pool.size(), 1);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, SubmitFromWithinJob) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&pool, &counter] {
    counter.fetch_add(1);
    pool.submit([&counter] { counter.fetch_add(1); });
  });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

}  // namespace
}  // namespace redist
