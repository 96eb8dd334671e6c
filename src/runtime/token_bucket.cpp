#include "runtime/token_bucket.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/error.hpp"

namespace redist {

namespace {

// How late a sleep_for may wake up on a loaded host. acquire() sleeps only
// for the part of a wait beyond this slack and re-tries with yield() for
// the rest. Sleeping through the whole wait would cap a bucket at about one
// burst per wake-up, far below its rate when a chunk refills in
// microseconds (1 GB/s cards, 16 KiB chunks).
constexpr double kWakeSlackSeconds = 150e-6;

// Longest single sleep, so a waiter re-reads a balance that concurrent
// takers have changed.
constexpr double kMaxSleepSeconds = 0.05;

}  // namespace

TokenBucket::TokenBucket(double rate_bps, Bytes burst_bytes)
    : rate_bps_(rate_bps),
      burst_(static_cast<double>(burst_bytes)),
      tokens_(static_cast<double>(burst_bytes)),
      last_refill_ns_(now_ns()) {
  REDIST_CHECK_MSG(rate_bps > 0, "token bucket rate must be positive");
  REDIST_CHECK_MSG(burst_bytes > 0, "token bucket burst must be positive");
}

std::uint64_t TokenBucket::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void TokenBucket::refill() {
  const std::uint64_t now = now_ns();
  std::uint64_t last = last_refill_ns_.load(std::memory_order_relaxed);
  while (now > last) {
    if (!last_refill_ns_.compare_exchange_weak(last, now,
                                               std::memory_order_relaxed,
                                               std::memory_order_relaxed)) {
      continue;  // `last` reloaded; exit if another thread claimed past now
    }
    // This thread owns the [last, now) span; credit it exactly once.
    const double credit =
        static_cast<double>(now - last) * 1e-9 * rate_bps_;
    double cur = tokens_.load(std::memory_order_relaxed);
    for (;;) {
      const double next = std::min(burst_, cur + credit);
      if (tokens_.compare_exchange_weak(cur, next, std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
        return;
      }
    }
  }
}

bool TokenBucket::try_take(double want) {
  refill();
  double cur = tokens_.load(std::memory_order_relaxed);
  while (cur >= want) {
    if (tokens_.compare_exchange_weak(cur, cur - want,
                                      std::memory_order_relaxed,
                                      std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

bool TokenBucket::try_acquire(Bytes n) {
  REDIST_CHECK(n >= 0);
  const double want = static_cast<double>(n);
  if (want > burst_) return false;
  return try_take(want);
}

void TokenBucket::acquire(Bytes n) {
  REDIST_CHECK(n >= 0);
  double want = static_cast<double>(n);
  while (want > 0) {
    const double gulp = std::min(want, burst_);
    // Waiters share nothing but the balance: concurrent acquirers split the
    // rate by racing each other's try_take, so the bucket's total stays at
    // its rate but no order among waiters is promised.
    while (!try_take(gulp)) {
      const double deficit =
          gulp - tokens_.load(std::memory_order_relaxed);
      const double wait_seconds = std::max(deficit, 0.0) / rate_bps_;
      if (wait_seconds > kWakeSlackSeconds) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::min(wait_seconds - kWakeSlackSeconds, kMaxSleepSeconds)));
      } else {
        std::this_thread::yield();
      }
    }
    want -= gulp;
  }
}

}  // namespace redist
