#include "runtime/token_bucket.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/stopwatch.hpp"

namespace redist {
namespace {

TEST(TokenBucket, ValidatesConstruction) {
  EXPECT_THROW(TokenBucket(0, 100), Error);
  EXPECT_THROW(TokenBucket(-1, 100), Error);
  EXPECT_THROW(TokenBucket(100, 0), Error);
}

TEST(TokenBucket, BurstIsImmediatelyAvailable) {
  TokenBucket bucket(1000, 4096);
  Stopwatch watch;
  bucket.acquire(4096);
  EXPECT_LT(watch.elapsed_seconds(), 0.05);
}

TEST(TokenBucket, TryAcquireHonorsBalance) {
  TokenBucket bucket(1.0, 100);  // very slow refill
  EXPECT_TRUE(bucket.try_acquire(60));
  EXPECT_FALSE(bucket.try_acquire(60));  // only ~40 left
  EXPECT_TRUE(bucket.try_acquire(40));
  EXPECT_FALSE(bucket.try_acquire(1000));  // above burst: never
}

TEST(TokenBucket, SustainedRateIsEnforced) {
  // 100 KB/s, ask for burst + 20 KB => at least ~0.2 s.
  TokenBucket bucket(100e3, 8192);
  Stopwatch watch;
  Bytes total = 8192 + 20000;
  Bytes left = total;
  while (left > 0) {
    const Bytes chunk = std::min<Bytes>(left, 4096);
    bucket.acquire(chunk);
    left -= chunk;
  }
  const double elapsed = watch.elapsed_seconds();
  EXPECT_GE(elapsed, 0.15);
  EXPECT_LE(elapsed, 2.0);  // generous upper bound for slow CI
}

TEST(TokenBucket, AcquireLargerThanBurstCompletes) {
  TokenBucket bucket(1e6, 1024);
  Stopwatch watch;
  bucket.acquire(10240);  // 10 gulps
  EXPECT_GE(watch.elapsed_seconds(), 0.005);
}

TEST(TokenBucket, ConcurrentAcquirersShareTheRate) {
  // Two threads pulling from a 200 KB/s bucket should take about as long as
  // one thread pulling the combined volume.
  TokenBucket bucket(200e3, 4096);
  bucket.acquire(4096);  // drain initial burst for a cleaner measurement
  auto worker = [&bucket]() {
    Bytes left = 20000;
    while (left > 0) {
      const Bytes chunk = std::min<Bytes>(left, 2048);
      bucket.acquire(chunk);
      left -= chunk;
    }
  };
  Stopwatch watch;
  std::thread a(worker);
  std::thread b(worker);
  a.join();
  b.join();
  const double elapsed = watch.elapsed_seconds();
  EXPECT_GE(elapsed, 0.12);  // 40 KB at 200 KB/s = 0.2 s nominal
  EXPECT_LE(elapsed, 2.0);
}

// --- Shaper fidelity at loopback rates ----------------------------------
//
// A 16 KiB chunk refills in ~8 us at 2e9 B/s and a 32 KiB burst holds
// ~16 us of rate, both far below a sleep's wake-up delay. Sleeping through
// such a wait caps a thread at about one burst per wake-up; the bucket must
// still hold its configured rate.

constexpr double kLoopbackRate = 2e9;
constexpr Bytes kLoopbackBurst = 32768;
constexpr Bytes kLoopbackChunk = 16384;

void pull(TokenBucket& bucket, Bytes total) {
  for (Bytes left = total; left > 0; left -= kLoopbackChunk) {
    bucket.acquire(std::min(left, kLoopbackChunk));
  }
}

double thread_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

TEST(TokenBucket, HighRateIsNotCappedBySleepGranularity) {
  // 64 MiB at 2e9 B/s is 33.5 ms nominal. 2047 waits of even 50 us each
  // would take over 100 ms.
  TokenBucket bucket(kLoopbackRate, kLoopbackBurst);
  Stopwatch watch;
  pull(bucket, Bytes{64} << 20);
  const double elapsed = watch.elapsed_seconds();
  EXPECT_GE(elapsed, 0.030);
  EXPECT_LT(elapsed, 0.080);
}

TEST(TokenBucket, SharedHighRateBucketHoldsItsRate) {
  // Two flows through one backbone bucket: 2 x 32 MiB at 2e9 B/s is the
  // same 33.5 ms nominal as one flow pulling 64 MiB.
  TokenBucket bucket(kLoopbackRate, kLoopbackBurst);
  Stopwatch watch;
  std::thread a([&bucket] { pull(bucket, Bytes{32} << 20); });
  std::thread b([&bucket] { pull(bucket, Bytes{32} << 20); });
  a.join();
  b.join();
  const double elapsed = watch.elapsed_seconds();
  EXPECT_GE(elapsed, 0.030);
  EXPECT_LT(elapsed, 0.080);
}

TEST(TokenBucket, SlowRateWaitsSleep) {
  // 100 KB/s, burst + 20 KB in 4 KiB chunks: ~0.2 s of waiting, each wait
  // ~40 ms. Those waits must sleep, not spin: the thread's CPU time stays
  // a small share of the wall time.
  TokenBucket bucket(100e3, 8192);
  const double cpu_before = thread_cpu_seconds();
  Stopwatch watch;
  for (Bytes left = 8192 + 20000; left > 0; left -= 4096) {
    bucket.acquire(std::min<Bytes>(left, 4096));
  }
  const double elapsed = watch.elapsed_seconds();
  const double cpu = thread_cpu_seconds() - cpu_before;
  EXPECT_GE(elapsed, 0.15);
  EXPECT_LE(elapsed, 2.0);
  EXPECT_LT(cpu, elapsed / 4);
}

}  // namespace
}  // namespace redist
