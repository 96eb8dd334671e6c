#include "obs/telemetry.hpp"

#include "common/sync.hpp"
#include "obs/metrics.hpp"

namespace redist::obs::detail {

std::atomic<MetricsRegistry*> g_metrics{nullptr};
std::atomic<Journal*> g_journal{nullptr};

}  // namespace redist::obs::detail

#if REDIST_LOCK_RANK_CHECKS
namespace redist::obs {
namespace {

// Runtime half of the lock-rank sentinel's contention report: every
// Mutex::lock() that had to block feeds its wait here. The sentinel sets a
// thread-local in-hook flag around the call, so the histogram's own stripe
// locks neither recurse into this hook nor get rank-checked against the
// contended lock.
void record_lock_wait(int rank, std::uint64_t wait_ns) {
  (void)rank;
  MetricsRegistry* const metrics = obs::metrics();
  if (metrics == nullptr) return;
  metrics->histogram("lock.wait_ns", {1e3, 1e4, 1e5, 1e6, 1e7, 1e8})
      .record(static_cast<double>(wait_ns));
}

struct LockWaitHookInstaller {
  LockWaitHookInstaller() { lockrank::set_wait_hook(&record_lock_wait); }
};

const LockWaitHookInstaller g_lock_wait_hook_installer;

}  // namespace
}  // namespace redist::obs
#endif  // REDIST_LOCK_RANK_CHECKS
