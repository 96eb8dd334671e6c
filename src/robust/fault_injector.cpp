#include "robust/fault_injector.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace redist::robust {

namespace {
std::atomic<FaultInjector*> g_injector{nullptr};
}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kConnectRefuse:
      return "connect-refuse";
    case FaultKind::kReset:
      return "reset";
    case FaultKind::kStall:
      return "stall";
    case FaultKind::kShortWrite:
      return "short-write";
    case FaultKind::kCorrupt:
      return "corrupt";
  }
  return "?";
}

FaultInjector::FaultInjector(std::uint64_t seed) : rng_(seed) {}

void FaultInjector::add_rule(const FaultRule& rule) {
  REDIST_CHECK_MSG(rule.probability >= 0.0 && rule.probability <= 1.0,
                   "fault probability outside [0, 1]");
  REDIST_CHECK_MSG(rule.kind != FaultKind::kConnectRefuse ||
                       rule.site == FaultSite::kConnect,
                   "connect-refuse rules apply to the connect site");
  REDIST_CHECK_MSG(rule.kind != FaultKind::kShortWrite || rule.chunk_cap > 0,
                   "short-write rules need a positive chunk cap");
  REDIST_CHECK_MSG(rule.kind != FaultKind::kCorrupt ||
                       rule.site == FaultSite::kRecv,
                   "corrupt rules apply to the recv site");
  MutexLock lock(inject_mutex_);
  rules_.push_back(ArmedRule{rule, rule.count});
}

FaultPlan FaultInjector::plan_op(FaultSite site) {
  FaultPlan plan;
  std::uint64_t fired = 0;
  {
    MutexLock lock(inject_mutex_);
    const std::uint64_t index = ops_[static_cast<std::size_t>(site)]++;
    for (ArmedRule& armed : rules_) {
      const FaultRule& rule = armed.rule;
      if (rule.site != site || armed.remaining == 0 || index < rule.begin) {
        continue;
      }
      if (rule.probability < 1.0 && !rng_.bernoulli(rule.probability)) {
        continue;
      }
      --armed.remaining;
      ++fired;
      switch (rule.kind) {
        case FaultKind::kConnectRefuse:
          plan.refuse = true;
          break;
        case FaultKind::kReset:
          plan.reset = true;
          plan.reset_after = std::max(plan.reset_after, rule.at_bytes);
          break;
        case FaultKind::kStall:
          plan.stall_ms = std::max(plan.stall_ms, rule.stall_ms);
          break;
        case FaultKind::kShortWrite:
          plan.chunk_cap = plan.chunk_cap == 0
                               ? rule.chunk_cap
                               : std::min(plan.chunk_cap, rule.chunk_cap);
          break;
        case FaultKind::kCorrupt:
          plan.corrupt = true;
          plan.corrupt_at = rule.at_bytes;
          break;
      }
    }
  }
  if (fired > 0) {
    injected_.fetch_add(fired, std::memory_order_relaxed);
    obs::MetricsRegistry* const metrics = obs::metrics();
    if (metrics != nullptr) {
      metrics->counter("robust.fault.injected").add(fired);
    }
    obs::journal_record(obs::JournalEventKind::kFaultInjected,
                        static_cast<std::int64_t>(site),
                        static_cast<std::int64_t>(fired));
  }
  return plan;
}

std::uint64_t FaultInjector::op_count(FaultSite site) const {
  MutexLock lock(inject_mutex_);
  return ops_[static_cast<std::size_t>(site)];
}

FaultInjector* injector() noexcept {
  return g_injector.load(std::memory_order_acquire);
}

ScopedFaultInjection::ScopedFaultInjection(FaultInjector* injector)
    : previous_(g_injector.exchange(injector, std::memory_order_acq_rel)) {}

ScopedFaultInjection::~ScopedFaultInjection() {
  g_injector.store(previous_, std::memory_order_release);
}

}  // namespace redist::robust
