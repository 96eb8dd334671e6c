// Monotonic wall-clock stopwatch (the paper timed runs with ntp_gettime; we
// use std::chrono::steady_clock for the same purpose).
//
// This is the repo's single timebase: benchmarks (bench/), the CLI, the
// daemon and the telemetry subsystem's trace spans (src/obs) all time
// against Stopwatch / Stopwatch::now_ns(), so durations from any of them
// are directly comparable. Resolution is nanoseconds (steady_clock ticks at
// ns on every platform we target).
#pragma once

#include <chrono>
#include <cstdint>

#include "common/contract_annotations.hpp"

REDIST_LAYER("common");

namespace redist {

class Stopwatch {
 public:
  using Clock = std::chrono::steady_clock;

  Stopwatch() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Nanoseconds on the shared steady timebase (epoch is arbitrary but
  /// consistent process-wide; only differences are meaningful).
  static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
  }

  std::uint64_t elapsed_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double elapsed_ms() const { return elapsed_seconds() * 1e3; }

 private:
  Clock::time_point start_;
};

}  // namespace redist
