// Flight recorder — fixed-capacity, striped ring-buffer event journal.
//
// Where the metrics registry (obs/metrics.hpp) aggregates and the trace
// session (obs/trace.hpp) collects unbounded spans, the journal answers the
// forensic question "what exactly happened around solve #N?": a bounded,
// always-on ring of typed events (solve begin/end, peel steps, ThreadPool
// task lifecycle, socket retry/fault/recovery) that can be dumped as
// versioned JSONL on demand, after a fault-storm recovery
// (mpilite/redistribute.cpp), or from a fatal-signal handler.
//
// Causality: every event carries a solve ID. IDs are allocated from one
// process-wide monotone counter (allocate_solve_id) and threaded through
// SolverOptions/SolveResult; SolveIdScope pins the current thread's ID so
// seams deep in the pipeline (peeling, the pool worker, the socket loop)
// stamp events without plumbing an argument through every signature.
// Joining journal events on `solve` therefore reconstructs one solve's
// story across solver, pool, and socket layers.
//
// Concurrency: a global relaxed atomic sequence assigns each event a slot;
// slots are spread over 8 mutex-striped sub-rings (stripe = seq % 8), so
// concurrent writers contend only 1/8th of the time and the retained set is
// still exactly the last `capacity()` events in sequence order. Like the
// telemetry sinks, the journal is null by default: seams pay one relaxed
// atomic load and a predictable branch when no journal is installed, and
// recording never feeds back into scheduling (instrumented and
// uninstrumented runs emit bit-identical schedules).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/contract_annotations.hpp"
#include "common/sync.hpp"
#include "common/thread_annotations.hpp"

REDIST_LAYER("obs");

namespace redist::obs {

/// Typed journal events. The JSONL dump and the crash dump write each
/// kind's name, never its ordinal, so kinds may be added, removed or
/// reordered without changing a dump; a kind's name is its wire identity
/// and must not change.
enum class JournalEventKind : std::uint8_t {
  kSolveBegin,       ///< a=nodes per side, b=alive edges
  kSolveEnd,         ///< a=schedule steps, b=schedule cost, v=evaluation ratio
  kPeelStep,         ///< a=step index, b=matched edges, v=peeled amount
  kPoolEnqueue,      ///< task queued; a=queue depth after enqueue
  kPoolStart,        ///< worker picked task up; v=wait ms
  kPoolFinish,       ///< task returned; v=run ms
  kRetry,            ///< a=attempt index (robust::Retrier backoff fired)
  kFaultInjected,    ///< a=fault site, b=rules fired (robust::FaultInjector)
  kAttemptBegin,     ///< a=socket run attempt index
  kAttemptEnd,       ///< a=attempt index, b=1 when the attempt failed
  kRecoverySpliced,  ///< a=attempt index, b=residual pairs re-solved
  kRpcRequest,       ///< service request decoded; a=rpc tag, b=payload bytes
  kCacheHit,         ///< exact fingerprint hit; a=entry hit count
  kCacheMiss,        ///< no cached entry; a=entries currently cached
  kCacheEvict,       ///< LFU eviction; a=evicted hit count, b=entries left
};

/// Stable wire name for a kind ("solve_begin", ...).
const char* journal_event_kind_name(JournalEventKind kind);

/// One recorded event. `a`, `b`, `v` are kind-specific payload slots (see
/// the kind comments); unused slots stay zero.
struct JournalEvent {
  std::uint64_t seq = 0;       ///< global record order (dense, from 0)
  std::uint64_t ts_ns = 0;     ///< journal clock (Stopwatch-based by default)
  std::uint64_t solve_id = 0;  ///< causal join key; 0 = outside any solve
  std::int64_t a = 0;
  std::int64_t b = 0;
  double v = 0.0;
  std::uint32_t tid = 0;  ///< dense thread index (TraceSession::current_tid)
  JournalEventKind kind = JournalEventKind::kSolveBegin;
};

/// Fixed-capacity event ring. Thread-safe; see the header comment for the
/// striping scheme. Dropping is silent by design (dropped() reports how
/// many events aged out) — the journal must never block a solve.
class Journal {
 public:
  /// `capacity` is rounded down to a multiple of the stripe count (min 8).
  /// `clock` is injectable for golden tests; the default counts nanoseconds
  /// from construction on Stopwatch::now_ns().
  explicit Journal(std::size_t capacity = 8192,
                   std::function<std::uint64_t()> clock = {});

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Records under the calling thread's SolveIdScope (0 when none).
  /// Flight-recorder appends sit on every hot seam, so they must never
  /// block (`noblock` analyzer rule).
  REDIST_NOBLOCK
  void record(JournalEventKind kind, std::int64_t a = 0, std::int64_t b = 0,
              double v = 0.0);

  /// Records with an explicit solve ID (pool seams carry the enqueuer's).
  REDIST_NOBLOCK
  void record_for(std::uint64_t solve_id, JournalEventKind kind,
                  std::int64_t a = 0, std::int64_t b = 0, double v = 0.0);

  /// The retained events in sequence order; the last `last_n` only when
  /// `last_n` is nonzero. Exact with respect to completed records.
  std::vector<JournalEvent> snapshot(std::size_t last_n = 0) const;

  std::size_t capacity() const { return capacity_; }

  /// Events ever recorded (retained + aged out).
  std::uint64_t total_recorded() const {
    return seq_.load(std::memory_order_relaxed);
  }

  /// Events that aged out of the ring.
  std::uint64_t dropped() const {
    const std::uint64_t total = total_recorded();
    return total > capacity_ ? total - capacity_ : 0;
  }

  /// Sequence number the next event will get (== total_recorded()).
  std::uint64_t head_seq() const { return total_recorded(); }

  /// Solve lifecycle tallies (statusz reports begun - finished as
  /// "in flight"). Counted from kSolveBegin/kSolveEnd records.
  std::uint64_t solves_begun() const {
    return solves_begun_.load(std::memory_order_relaxed);
  }
  std::uint64_t solves_finished() const {
    return solves_finished_.load(std::memory_order_relaxed);
  }

  /// Fatal-signal path: writes the header plus every initialized slot to an
  /// open file descriptor using only async-signal-safe calls (write(2),
  /// stack-local integer formatting — no locks, no allocation). Events may
  /// be torn mid-record; forensics over a dying process accepts that.
  void dump_to_fd(int fd) const;

 private:
  static constexpr std::size_t kStripes = 8;

  struct Stripe {
    mutable Mutex journal_mu REDIST_LOCK_RANK(80);
    /// Slot j holds the event with seq % kStripes == stripe index and
    /// (seq / kStripes) % stripe_capacity == j.
    std::vector<JournalEvent> ring REDIST_GUARDED_BY(journal_mu);
    /// Events ever written to this stripe; min(appended, ring.size())
    /// slots are initialized.
    std::uint64_t appended REDIST_GUARDED_BY(journal_mu) = 0;
  };

  std::size_t stripe_capacity_;
  std::size_t capacity_;
  std::function<std::uint64_t()> clock_;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> solves_begun_{0};
  std::atomic<std::uint64_t> solves_finished_{0};
  Stripe stripes_[kStripes];
};

/// Serializes a header line (`{"schema":"redist.journal.v1",...}`) followed
/// by one JSON object per retained event, oldest first (the last `last_n`
/// when nonzero). Thread ids are renumbered densely in order of first
/// appearance so dumps are stable across runs.
void write_journal_jsonl(std::ostream& os, const Journal& journal,
                         std::size_t last_n = 0);

// ---------------------------------------------------------------------------
// Process-wide install point (mirrors obs/telemetry.hpp).

namespace detail {
extern std::atomic<Journal*> g_journal;
}  // namespace detail

/// Currently installed journal, or nullptr (flight recording off).
inline Journal* journal() noexcept {
  return detail::g_journal.load(std::memory_order_acquire);
}

/// Installs a journal on construction, restores the previous one on
/// destruction. Install before fanning work out, like ScopedTelemetry.
class ScopedJournal {
 public:
  explicit ScopedJournal(Journal* journal)
      : previous_(
            detail::g_journal.exchange(journal, std::memory_order_acq_rel)) {}
  ~ScopedJournal() {
    detail::g_journal.store(previous_, std::memory_order_release);
  }

  ScopedJournal(const ScopedJournal&) = delete;
  ScopedJournal& operator=(const ScopedJournal&) = delete;

 private:
  Journal* previous_;
};

/// Null-safe recording helper for instrumentation seams. Follows the
/// telemetry-guard discipline: one acquire load, one branch, no work when
/// no journal is installed.
inline void journal_record(JournalEventKind kind, std::int64_t a = 0,
                           std::int64_t b = 0, double v = 0.0) {
  Journal* const sink = journal();
  if (sink != nullptr) sink->record(kind, a, b, v);
}

// ---------------------------------------------------------------------------
// Solve identity.

/// Allocates the next process-unique solve ID (monotone, starts at 1; 0 is
/// reserved for "no solve").
std::uint64_t allocate_solve_id();

/// Pins `id` as the calling thread's current solve ID for the scope;
/// restores the previous one on exit (scopes nest: a robust run's re-solve
/// inherits the run ID unless the resolve options carry their own).
class SolveIdScope {
 public:
  explicit SolveIdScope(std::uint64_t id);
  ~SolveIdScope();

  SolveIdScope(const SolveIdScope&) = delete;
  SolveIdScope& operator=(const SolveIdScope&) = delete;

  /// The calling thread's pinned solve ID, or 0 outside any scope.
  static std::uint64_t current();

 private:
  std::uint64_t previous_;
};

// ---------------------------------------------------------------------------
// Fatal-signal dump.

/// Arms a process-wide handler (SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT) that
/// dumps `journal` to `path` via Journal::dump_to_fd before re-raising with
/// the default disposition. One journal/path pair at a time; call
/// uninstall_signal_dump before the journal dies.
void install_signal_dump(Journal* journal, const std::string& path);

/// Restores the previous signal dispositions and disarms the dump.
void uninstall_signal_dump();

}  // namespace redist::obs
