// Metrics registry — named counters, gauges and fixed-bucket histograms.
//
// The registry is the aggregation side of the telemetry subsystem
// (docs/OBSERVABILITY.md): instrumentation seams in the solver pipeline
// record into it, exporters (obs/export.hpp) serialize it. Designed for
// concurrent recording from ThreadPool workers:
//
//  * Counter and Gauge are single relaxed atomics — exact totals under any
//    interleaving, no locks;
//  * Histogram stripes its state (bucket counts plus a RunningStats
//    summary, which cannot be updated atomically together) across 8
//    independently locked sub-accumulators keyed by the recording thread's
//    dense index, so concurrent recorders contend only when they collide
//    on a stripe; snapshot() merges the stripes and stays exact;
//  * instrument creation/lookup is sharded by name hash, so unrelated
//    lookups do not contend on one registry-wide lock.
//
// Handles returned by counter()/gauge()/histogram() are stable for the
// registry's lifetime — hot loops fetch them once and record through the
// pointer. When no registry is installed (obs/telemetry.hpp returns
// nullptr), instrumentation sites skip all of this behind a single branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/contract_annotations.hpp"
#include "common/stats.hpp"
#include "common/sync.hpp"

REDIST_LAYER("obs");

namespace redist::obs {

/// Monotonically increasing event count. Exact under concurrency.
class Counter {
 public:
  // NOBLOCK only: `add` is too generic a name for the token-level noalloc
  // closure (it would merge with every other add() in src/).
  REDIST_NOBLOCK
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed level (e.g. queue depth) with a high watermark.
class Gauge {
 public:
  REDIST_NOBLOCK
  void set(std::int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    update_max(v);
  }
  void add(std::int64_t delta) {
    const std::int64_t now =
        value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    update_max(now);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  /// Highest value ever observed (0 if never set above 0).
  std::int64_t max() const { return max_.load(std::memory_order_relaxed); }

 private:
  void update_max(std::int64_t candidate) {
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (candidate > seen &&
           !max_.compare_exchange_weak(seen, candidate,
                                       std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

struct HistogramSnapshot {
  std::vector<double> bounds;        ///< ascending bucket upper limits
  std::vector<std::uint64_t> counts; ///< bounds.size() + 1 (last = overflow)
  RunningStats summary;              ///< exact count/mean/min/max/stddev

  /// Quantile estimate for q in [0, 1], linearly interpolated within the
  /// bucket containing the rank. The first bucket's lower edge is the
  /// observed min, the overflow bucket's upper edge the observed max, and
  /// the result is clamped to [min, max] — so estimates never leave the
  /// observed range. NaN when empty.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
};

/// Fixed-bucket histogram with an exact RunningStats summary. Bucket i
/// counts samples x <= bounds[i] (first matching bucket); the final bucket
/// is the +inf overflow. Recording stripes across independently locked
/// sub-accumulators (see the file header); snapshot() merges them, so
/// totals are exact with respect to completed record() calls.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  /// Solve threads cross this thousands of times per schedule: it must
  /// never sleep, wait, or touch a socket (`noblock` analyzer rule).
  REDIST_NOBLOCK
  void record(double x);
  HistogramSnapshot snapshot() const;

 private:
  static constexpr std::size_t kStripes = 8;

  struct Stripe {
    mutable Mutex hist_mu REDIST_LOCK_RANK(70);
    std::vector<std::uint64_t> counts REDIST_GUARDED_BY(hist_mu);
    RunningStats summary REDIST_GUARDED_BY(hist_mu);
  };

  std::vector<double> bounds_;  ///< immutable after construction
  Stripe stripes_[kStripes];
};

/// Default bucket layout for millisecond latencies (10 µs .. 10 s).
std::vector<double> default_latency_bounds_ms();
/// Default bucket layout for integer amounts (powers of two up to 2^20).
std::vector<double> default_amount_bounds();

struct GaugeSnapshot {
  std::int64_t value = 0;
  std::int64_t max = 0;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, GaugeSnapshot>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/// Named-instrument registry. Thread-safe; see file header for the model.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter/gauge registered under `name`, creating it on
  /// first use. The reference stays valid for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);

  /// Returns the histogram registered under `name`. `bounds` is consulted
  /// only on first use (empty picks default_latency_bounds_ms()); later
  /// calls return the existing histogram regardless of `bounds`.
  Histogram& histogram(std::string_view name, std::vector<double> bounds = {});

  /// Consistent-enough snapshot for exporters: every instrument that
  /// existed before the call is included, names sorted ascending.
  MetricsSnapshot snapshot() const;

 private:
  struct Shard {
    // snapshot() holds the shard while snapshotting each histogram's
    // stripes, hence the declared ordering.
    mutable Mutex shard_mu REDIST_ACQUIRED_BEFORE(hist_mu)
        REDIST_LOCK_RANK(60);
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters
        REDIST_GUARDED_BY(shard_mu);
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges
        REDIST_GUARDED_BY(shard_mu);
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms
        REDIST_GUARDED_BY(shard_mu);
  };
  static constexpr std::size_t kShards = 8;

  Shard& shard_for(std::string_view name) {
    return shards_[std::hash<std::string_view>{}(name) % kShards];
  }

  Shard shards_[kShards];
};

}  // namespace redist::obs
