// Process-wide telemetry install point.
//
// The instrumentation seams in the pipeline (solver, WRGP, bottleneck
// search, Hopcroft–Karp, ThreadPool) read two global sink pointers:
// a MetricsRegistry and a TraceSession. Both default to nullptr — the null
// sink — so an uninstrumented run pays one relaxed atomic load plus a
// predictable branch per seam, and recording never allocates or locks.
//
// ScopedTelemetry installs sinks for a region (CLI subcommand, benchmark,
// test) and restores the previous ones on scope exit. Install before
// fanning work out: worker threads read the same globals, and the registry
// and session are themselves thread-safe, so one scope covers every solve
// a ThreadPool runs. Installation itself is not synchronized against
// concurrent installs from other threads.
//
// Telemetry is observation only: no instrument feeds back into scheduling
// decisions, so instrumented and uninstrumented runs emit bit-identical
// schedules (pinned by tests/test_telemetry_differential.cpp).
#pragma once

#include <atomic>

#include "common/contract_annotations.hpp"

REDIST_LAYER("obs");

namespace redist::obs {

class MetricsRegistry;
class TraceSession;

namespace detail {
extern std::atomic<MetricsRegistry*> g_metrics;
extern std::atomic<TraceSession*> g_trace;
}  // namespace detail

/// Currently installed metrics sink, or nullptr (telemetry off).
inline MetricsRegistry* metrics() noexcept {
  return detail::g_metrics.load(std::memory_order_acquire);
}

/// Currently installed trace sink, or nullptr (tracing off).
inline TraceSession* trace() noexcept {
  return detail::g_trace.load(std::memory_order_acquire);
}

/// Installs sinks on construction, restores the previous ones on
/// destruction. Either pointer may be nullptr to leave that sink disabled.
class ScopedTelemetry {
 public:
  ScopedTelemetry(MetricsRegistry* metrics, TraceSession* trace)
      : previous_metrics_(
            detail::g_metrics.exchange(metrics, std::memory_order_acq_rel)),
        previous_trace_(
            detail::g_trace.exchange(trace, std::memory_order_acq_rel)) {}

  ~ScopedTelemetry() {
    detail::g_metrics.store(previous_metrics_, std::memory_order_release);
    detail::g_trace.store(previous_trace_, std::memory_order_release);
  }

  ScopedTelemetry(const ScopedTelemetry&) = delete;
  ScopedTelemetry& operator=(const ScopedTelemetry&) = delete;

 private:
  MetricsRegistry* previous_metrics_;
  TraceSession* previous_trace_;
};

}  // namespace redist::obs
