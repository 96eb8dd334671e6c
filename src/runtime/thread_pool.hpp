// Fixed-size worker pool. The scheduler daemon serves each connection, and
// so each solve, on one; it is the only code that runs solves concurrently.
//
// Deliberately minimal: submit() enqueues a job, wait_idle() blocks until
// the queue is drained and every worker is between jobs. Jobs must not
// throw — wrap the body in try/catch and stash the exception (as the
// daemon's connection handler does) if failure is an expected outcome.
//
// Locking discipline is machine-checked: queue_, active_ and stopping_
// are REDIST_GUARDED_BY(pool_mutex_) and clang -Werror=thread-safety proves
// every access holds the lock (docs/STATIC_ANALYSIS.md). The worker loop
// releases the lock around the job body through MutexLock's checked
// unlock()/lock(), and waits are explicit while-loops because the
// analysis cannot see into predicate lambdas.
#pragma once

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/contract_annotations.hpp"
#include "common/stopwatch.hpp"
#include "common/sync.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

REDIST_LAYER("runtime");

namespace redist {

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to at least 1).
  explicit ThreadPool(int threads) {
    if (threads < 1) threads = 1;
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { work(); });
    }
  }

  /// Drains outstanding jobs, then joins the workers.
  ~ThreadPool() {
    wait_idle();
    {
      MutexLock lock(pool_mutex_);
      stopping_ = true;
    }
    work_available_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a job. Safe to call from any thread, including from a job.
  /// The submitter's SolveIdScope is captured with the job so journal
  /// events on the worker join the enqueuing solve.
  REDIST_NOBLOCK
  void submit(std::function<void()> job) {
    obs::MetricsRegistry* const metrics = obs::metrics();
    std::uint64_t enqueue_ns = 0;
    if (metrics != nullptr) {
      metrics->counter("runtime.pool.tasks").add();
      enqueue_ns = Stopwatch::now_ns();
    }
    const std::uint64_t solve_id = obs::SolveIdScope::current();
    std::size_t depth = 0;
    {
      MutexLock lock(pool_mutex_);
      queue_.push_back(QueuedJob{std::move(job), enqueue_ns, solve_id});
      depth = queue_.size();
      if (metrics != nullptr) {
        metrics->gauge("runtime.pool.queue_depth")
            .set(static_cast<std::int64_t>(depth));
      }
    }
    obs::Journal* const journal = obs::journal();
    if (journal != nullptr) {
      journal->record_for(solve_id, obs::JournalEventKind::kPoolEnqueue,
                          static_cast<std::int64_t>(depth));
    }
    work_available_.notify_one();
  }

  /// Blocks until every submitted job has completed. The pool is reusable
  /// afterwards (submit/wait cycles may repeat).
  void wait_idle() {
    MutexLock lock(pool_mutex_);
    while (!queue_.empty() || active_ != 0) idle_.wait(pool_mutex_);
  }

 private:
  struct QueuedJob {
    std::function<void()> job;
    std::uint64_t enqueue_ns;  // Stopwatch::now_ns at submit; 0 = untimed
    std::uint64_t solve_id;    // submitter's SolveIdScope; 0 = none
  };

  void work() {
    MutexLock lock(pool_mutex_);
    for (;;) {
      while (!stopping_ && queue_.empty()) work_available_.wait(pool_mutex_);
      if (queue_.empty()) return;  // only reachable when stopping
      QueuedJob entry = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
      // Re-read the sink per job: telemetry may have been installed (or
      // torn down) after this worker was spawned.
      obs::MetricsRegistry* const metrics = obs::metrics();
      if (metrics != nullptr) {
        metrics->gauge("runtime.pool.queue_depth")
            .set(static_cast<std::int64_t>(queue_.size()));
      }
      lock.unlock();
      // Journal re-read per job for the same reason as the metrics sink;
      // the recorded solve ID is the submitter's, so a dump joins the
      // worker-side task lifecycle to the solve it serves.
      obs::Journal* const journal = obs::journal();
      if (metrics != nullptr || journal != nullptr) {
        const std::uint64_t start_ns = Stopwatch::now_ns();
        double wait_ms = 0.0;
        if (entry.enqueue_ns != 0 && start_ns >= entry.enqueue_ns) {
          wait_ms = static_cast<double>(start_ns - entry.enqueue_ns) / 1e6;
          if (metrics != nullptr) {
            metrics->histogram("runtime.pool.task_wait_ms").record(wait_ms);
          }
        }
        if (journal != nullptr) {
          journal->record_for(entry.solve_id,
                              obs::JournalEventKind::kPoolStart, 0, 0,
                              wait_ms);
        }
        entry.job();
        const double run_ms =
            static_cast<double>(Stopwatch::now_ns() - start_ns) / 1e6;
        if (metrics != nullptr) {
          metrics->histogram("runtime.pool.task_run_ms").record(run_ms);
        }
        if (journal != nullptr) {
          journal->record_for(entry.solve_id,
                              obs::JournalEventKind::kPoolFinish, 0, 0,
                              run_ms);
        }
      } else {
        entry.job();
      }
      lock.lock();
      if (--active_ == 0 && queue_.empty()) idle_.notify_all();
    }
  }

  // Outermost lock in the process hierarchy: held while updating the
  // queue-depth gauge, so it must order before the metrics shards.
  Mutex pool_mutex_ REDIST_ACQUIRED_BEFORE(shard_mu) REDIST_LOCK_RANK(10);
  CondVar work_available_;
  CondVar idle_;
  std::deque<QueuedJob> queue_ REDIST_GUARDED_BY(pool_mutex_);
  // Written only by the constructor, joined only by the destructor (both
  // single-threaded by contract).
  // redist-analyze: allow(mutex-guard) touched only by the ctor and dtor
  std::vector<std::thread> workers_;
  int active_ REDIST_GUARDED_BY(pool_mutex_) = 0;
  bool stopping_ REDIST_GUARDED_BY(pool_mutex_) = false;
};

}  // namespace redist
