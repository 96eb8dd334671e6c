// Lock-free token-bucket rate limiter.
//
// The paper shaped every NIC to 100/k Mbit/s with the `rshaper` kernel
// module, "a software token bucket filter". This class is that filter in
// user space — and, since the scheduler daemon moved admission control and
// per-client rate limiting onto it (src/service), it is also the service's
// hot-path throttle, so it must never serialize concurrent requests on a
// mutex.
//
// The implementation is CAS-based and lock-free (the AtomicLib bucket /
// rate-limiter idiom, without the refill thread):
//  * `tokens_` is an atomic balance consumed by a compare-exchange loop —
//    concurrent winners can never over-issue because each CAS debits the
//    balance it observed;
//  * refill is on-demand: a CAS on `last_refill_ns_` claims the elapsed
//    time span, so every nanosecond of refill is credited exactly once no
//    matter how many threads race through refill() concurrently.
//
// try_acquire() is wait-free apart from CAS retries and carries
// REDIST_NOBLOCK — the redist_analyze noblock rule proves it reaches no
// sleep, poll or lock. acquire() blocks and is deliberately *not* noblock:
// it sleeps through all of a wait but a short wake-up slack, then re-tries
// with yield() until the tokens are there. That way it holds the
// configured rate whenever a chunk fits in the burst, even when a chunk
// refills faster than the OS wakes a sleeping thread.
#pragma once

#include <atomic>

#include "common/contract_annotations.hpp"
#include "common/types.hpp"

REDIST_LAYER("runtime");

namespace redist {

class TokenBucket {
 public:
  /// rate_bps: refill rate in bytes/second; burst_bytes: bucket capacity.
  TokenBucket(double rate_bps, Bytes burst_bytes);

  TokenBucket(const TokenBucket&) = delete;
  TokenBucket& operator=(const TokenBucket&) = delete;

  /// Blocks until `n` tokens are available, then consumes them.
  /// n may exceed the burst size; it is drained in burst-sized gulps.
  /// Long waits sleep; the last ~150 us of any wait yields instead.
  void acquire(Bytes n);

  /// Non-blocking attempt; returns false if fewer than n tokens available
  /// (always false for n above the burst size). Lock-free: safe on the
  /// service admission path under arbitrary concurrency.
  REDIST_NOBLOCK
  bool try_acquire(Bytes n);

  double rate_bps() const { return rate_bps_; }

  /// Tokens currently in the bucket (racy snapshot; diagnostics only).
  double balance() const { return tokens_.load(std::memory_order_relaxed); }

 private:
  /// Steady-clock nanoseconds (same timebase family as Stopwatch). The
  /// clock only paces refills — it never reaches a scheduling decision,
  /// so schedules stay deterministic.
  REDIST_ALLOW_NONDET("token-bucket refill timebase; paces transfers, never feeds schedule content")
  static std::uint64_t now_ns();

  /// Credits elapsed time to the balance. Each elapsed span is claimed by
  /// exactly one thread via CAS on last_refill_ns_, so racing refills never
  /// double-credit.
  REDIST_NOBLOCK
  void refill();

  /// One CAS-loop withdrawal attempt; `want` must be <= burst.
  REDIST_NOBLOCK
  bool try_take(double want);

  const double rate_bps_;
  const double burst_;
  std::atomic<double> tokens_;
  std::atomic<std::uint64_t> last_refill_ns_;
};

}  // namespace redist
