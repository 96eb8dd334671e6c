// Process-wide telemetry install point.
//
// The instrumentation seams in the pipeline (solver, WRGP, bottleneck
// search, Hopcroft–Karp, ThreadPool, the socket runtime, the daemon) read
// two global sink pointers: a MetricsRegistry (obs/metrics.hpp) and the
// flight-recorder Journal (obs/journal.hpp), the one event stream. Both
// default to nullptr — the null sink — so an uninstrumented run pays one
// atomic load plus a predictable branch per seam.
//
// ScopedTelemetry installs both sinks for a region (CLI subcommand, daemon,
// benchmark, test) and restores the previous ones on scope exit. Install
// before fanning work out: worker threads read the same globals, and the
// registry and journal are themselves thread-safe, so one scope covers
// every solve a ThreadPool runs. Installation itself is not synchronized
// against concurrent installs from other threads.
//
// Telemetry is observation only: no instrument feeds back into scheduling
// decisions, so instrumented and uninstrumented runs emit bit-identical
// schedules (pinned by tests/test_telemetry_differential.cpp).
#pragma once

#include <atomic>
#include <cstdint>

#include "common/contract_annotations.hpp"

REDIST_LAYER("obs");

namespace redist::obs {

class MetricsRegistry;
class Journal;

namespace detail {
extern std::atomic<MetricsRegistry*> g_metrics;
extern std::atomic<Journal*> g_journal;
}  // namespace detail

/// Currently installed metrics sink, or nullptr (metrics off).
inline MetricsRegistry* metrics() noexcept {
  return detail::g_metrics.load(std::memory_order_acquire);
}

/// Currently installed journal, or nullptr (flight recording off).
inline Journal* journal() noexcept {
  return detail::g_journal.load(std::memory_order_acquire);
}

/// Dense per-thread index (assigned on first use per thread); the stripe
/// key of histograms and the `tid` of journal events.
inline std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

/// Installs sinks on construction, restores the previous ones on
/// destruction. Either pointer may be nullptr to leave that sink off.
class ScopedTelemetry {
 public:
  ScopedTelemetry(MetricsRegistry* metrics, Journal* journal)
      : previous_metrics_(
            detail::g_metrics.exchange(metrics, std::memory_order_acq_rel)),
        previous_journal_(
            detail::g_journal.exchange(journal, std::memory_order_acq_rel)) {}

  ~ScopedTelemetry() {
    detail::g_metrics.store(previous_metrics_, std::memory_order_release);
    detail::g_journal.store(previous_journal_, std::memory_order_release);
  }

  ScopedTelemetry(const ScopedTelemetry&) = delete;
  ScopedTelemetry& operator=(const ScopedTelemetry&) = delete;

 private:
  MetricsRegistry* previous_metrics_;
  Journal* previous_journal_;
};

}  // namespace redist::obs
