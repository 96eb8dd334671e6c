// Annotated synchronization primitives: redist::Mutex, MutexLock, CondVar.
//
// std::mutex carries no thread-safety attributes, so clang's analysis
// cannot see acquisitions through std::lock_guard/std::unique_lock. These
// thin wrappers re-expose the standard primitives with the
// common/thread_annotations.hpp attributes attached, which is what lets
// -Werror=thread-safety prove the locking discipline of ThreadPool,
// MetricsRegistry, TraceSession, TokenBucket and mpilite::Mesh at compile
// time. Zero-cost: every method is an inline forward to the std type.
//
// Usage pattern (see docs/STATIC_ANALYSIS.md):
//
//   Mutex mu_;
//   std::deque<Job> queue_ REDIST_GUARDED_BY(mu_);
//   CondVar ready_;
//   ...
//   MutexLock lock(mu_);               // scoped acquire
//   while (queue_.empty()) ready_.wait(mu_);   // checked: mu_ is held
//   lock.unlock();                     // explicit release (checked)
//   ...                                // guarded access here would not
//   lock.lock();                       // compile; re-acquire (checked)
//
// CondVar wraps std::condition_variable_any so it can wait on the
// annotated Mutex directly (Mutex satisfies BasicLockable); waits use
// explicit while-loops instead of predicate lambdas because the analysis
// does not propagate capabilities into lambda bodies.
//
// Lock-rank hierarchy (docs/STATIC_ANALYSIS.md, layer 4): every long-lived
// Mutex in the tree declares a rank with REDIST_LOCK_RANK(n); a thread may
// only acquire a lock whose rank is strictly greater than every rank it
// already holds, which makes the whole-process lock graph a DAG and
// deadlock by cyclic wait impossible. tools/redist_analyze proves the
// ordering statically from the call graph; when REDIST_LOCK_RANK_CHECKS is
// on (debug or TSan builds, or -DREDIST_LOCK_RANK_CHECKS=ON) Mutex::lock()
// additionally enforces it at runtime with a thread-local held-rank stack,
// aborting on inversion (the SIGABRT handler of obs/journal.hpp then dumps
// the flight recorder) and feeding contended acquisitions into the
// `lock.wait_ns` histogram through a hook the obs layer installs.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/contract_annotations.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_annotations.hpp"

// The runtime sentinel rides along wherever asserts are live or TSan is in
// the build (TSan CI compiles RelWithDebInfo, so NDEBUG alone is not the
// signal); release builds compile it out entirely — Mutex stays a plain
// std::mutex wrapper, bit for bit.
#ifndef REDIST_LOCK_RANK_CHECKS
#if defined(__SANITIZE_THREAD__)
#define REDIST_LOCK_RANK_CHECKS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define REDIST_LOCK_RANK_CHECKS 1
#endif
#endif
#endif
#ifndef REDIST_LOCK_RANK_CHECKS
#if !defined(NDEBUG)
#define REDIST_LOCK_RANK_CHECKS 1
#else
#define REDIST_LOCK_RANK_CHECKS 0
#endif
#endif

REDIST_LAYER("common");

namespace redist {

/// Rank tag consumed by the Mutex constructor. Lower ranks are acquired
/// first (outermost); 0 / default-constructed means unranked, which the
/// `lock-rank` analyzer rule rejects for members under src/.
struct LockRank {
  int value = 0;
};

/// Declares a lock's position in the global acquisition order, e.g.
///   Mutex pool_mutex_ REDIST_LOCK_RANK(10);
/// Expands to a braced initializer so the rank reaches the runtime
/// sentinel; tools/redist_analyze reads the token stream directly.
#define REDIST_LOCK_RANK(n) \
  { ::redist::LockRank { (n) } }

/// Documents (and lets the analyzer cross-check) that this lock is
/// acquired before the named locks:
///   Mutex send_mutex REDIST_ACQUIRED_BEFORE(bucket_mutex_) REDIST_LOCK_RANK(20);
/// Each named lock must carry a strictly greater rank; the declared edges
/// join the derived call-graph edges in the analyzer's cycle check.
#define REDIST_ACQUIRED_BEFORE(...) \
  REDIST_CONTRACT_ANNOTATION("redist::acquired_before:" #__VA_ARGS__)

#if REDIST_LOCK_RANK_CHECKS
/// Runtime mirror of the static lock-rank rules: a per-thread stack of held
/// ranks, checked on every Mutex::lock(). Kept allocation-free (fixed
/// array) so the sentinel itself can run under locks and inside hot paths.
namespace lockrank {

/// Contention callback: called with (rank, wait_ns) after a lock() that had
/// to block. Installed by the obs layer (telemetry.cpp) to feed the
/// `lock.wait_ns` histogram; null until then.
using WaitHook = void (*)(int rank, std::uint64_t wait_ns);

inline std::atomic<WaitHook>& wait_hook_slot() {
  static std::atomic<WaitHook> hook{nullptr};
  return hook;
}

inline void set_wait_hook(WaitHook hook) {
  wait_hook_slot().store(hook, std::memory_order_release);
}

inline constexpr int kMaxHeld = 32;

struct HeldStack {
  int ranks[kMaxHeld] = {};
  int depth = 0;
  // True while the wait hook runs: the hook records into MetricsRegistry,
  // whose own (ranked) locks must neither recurse into the hook nor be
  // order-checked against whatever the interrupted thread holds.
  bool in_hook = false;
};

inline HeldStack& held() {
  thread_local HeldStack stack;
  return stack;
}

[[noreturn]] inline void die_on_inversion(int acquiring, int held_rank) {
  std::fprintf(stderr,
               "redist: lock-rank inversion: acquiring rank %d while "
               "holding rank %d (docs/STATIC_ANALYSIS.md, layer 4)\n",
               acquiring, held_rank);
  // SIGABRT is in the install_signal_dump set (obs/journal.hpp), so a
  // process with the flight recorder armed dumps the journal here.
  std::abort();
}

/// Pre-acquisition order check: every held rank must be strictly lower.
inline void check_order(int rank) {
  HeldStack& s = held();
  if (s.in_hook || rank <= 0) return;
  for (int i = 0; i < s.depth; ++i) {
    if (s.ranks[i] >= rank) die_on_inversion(rank, s.ranks[i]);
  }
}

inline void note_acquired(int rank) {
  HeldStack& s = held();
  if (s.in_hook || rank <= 0) return;
  if (s.depth < kMaxHeld) s.ranks[s.depth++] = rank;
}

inline void note_released(int rank) {
  HeldStack& s = held();
  if (s.in_hook || rank <= 0) return;
  for (int i = s.depth - 1; i >= 0; --i) {
    if (s.ranks[i] == rank) {
      for (int j = i; j + 1 < s.depth; ++j) s.ranks[j] = s.ranks[j + 1];
      --s.depth;
      return;
    }
  }
}

inline void note_wait(int rank, std::uint64_t wait_ns) {
  HeldStack& s = held();
  if (s.in_hook) return;
  const WaitHook hook = wait_hook_slot().load(std::memory_order_acquire);
  if (hook == nullptr) return;
  s.in_hook = true;
  hook(rank, wait_ns);
  s.in_hook = false;
}

}  // namespace lockrank
#endif  // REDIST_LOCK_RANK_CHECKS

/// Annotated exclusive mutex. Prefer MutexLock for scoped sections; the
/// raw lock()/unlock() pair exists for the analysis and for CondVar.
class REDIST_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
#if REDIST_LOCK_RANK_CHECKS
  explicit Mutex(LockRank rank) noexcept : rank_(rank.value) {}
#else
  explicit Mutex(LockRank) noexcept {}
#endif
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() REDIST_ACQUIRE() {
#if REDIST_LOCK_RANK_CHECKS
    // Check BEFORE blocking: an inversion must abort with a diagnostic,
    // not sit in the deadlock it predicts. Contended acquisitions (the
    // try_lock miss) are timed and fed to the obs wait hook.
    lockrank::check_order(rank_);
    if (!mu_.try_lock()) {
      const std::uint64_t wait_begin = Stopwatch::now_ns();
      mu_.lock();
      lockrank::note_wait(rank_, Stopwatch::now_ns() - wait_begin);
    }
    lockrank::note_acquired(rank_);
#else
    mu_.lock();
#endif
  }

  void unlock() REDIST_RELEASE() {
#if REDIST_LOCK_RANK_CHECKS
    lockrank::note_released(rank_);
#endif
    mu_.unlock();
  }

  bool try_lock() REDIST_TRY_ACQUIRE(true) {
#if REDIST_LOCK_RANK_CHECKS
    // try_lock cannot deadlock, so it is exempt from the order check, but
    // a successful try still lands on the held stack so later blocking
    // acquisitions are validated against it.
    if (!mu_.try_lock()) return false;
    lockrank::note_acquired(rank_);
    return true;
#else
    return mu_.try_lock();
#endif
  }

 private:
  // The one std::mutex the mutex-guard lint rule permits: this is the
  // annotated wrapper itself.
  std::mutex mu_;  // redist-analyze: allow(mutex-guard) annotation wrapper
#if REDIST_LOCK_RANK_CHECKS
  const int rank_ = 0;  // 0 = unranked: tracked but never order-checked
#endif
};

/// RAII lock with checked mid-scope unlock()/lock() (the worker-loop
/// pattern: release around the job body, re-acquire to update counters).
class REDIST_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) REDIST_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.lock();
  }

  ~MutexLock() REDIST_RELEASE() {
    if (held_) mu_.unlock();
  }

  /// Releases early; the analysis rejects guarded accesses after this.
  void unlock() REDIST_RELEASE() {
    held_ = false;
    mu_.unlock();
  }

  /// Re-acquires after unlock().
  void lock() REDIST_ACQUIRE() {
    mu_.lock();
    held_ = true;
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
  bool held_;
};

/// Condition variable that waits on the annotated Mutex. wait() declares
/// REQUIRES(mu) so calling it without the lock is a compile error; the
/// release/re-acquire inside the std wait is invisible to the analysis,
/// which conservatively (and correctly) treats the mutex as held across
/// the call.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) REDIST_REQUIRES(mu) { cv_.wait(mu); }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  // Permitted raw member: the wrapper that makes condvars annotation-aware.
  std::condition_variable_any
      cv_;  // redist-analyze: allow(mutex-guard) annotation wrapper
};

}  // namespace redist
