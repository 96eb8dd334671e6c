#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/telemetry.hpp"

namespace redist::obs {

double HistogramSnapshot::quantile(double q) const {
  const auto total = static_cast<std::uint64_t>(summary.count());
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample (1-based, fractional) within the sorted
  // sample sequence the bucket counts summarize.
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < rank) continue;
    if (counts[i] == 0) continue;
    const double lower = i == 0 ? summary.min() : bounds[i - 1];
    const double upper = i < bounds.size() ? bounds[i] : summary.max();
    const double before = static_cast<double>(cumulative - counts[i]);
    const double fraction =
        (rank - before) / static_cast<double>(counts[i]);
    const double estimate = lower + (upper - lower) * fraction;
    return std::clamp(estimate, summary.min(), summary.max());
  }
  return summary.max();
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  for (Stripe& stripe : stripes_) {
    MutexLock lock(stripe.hist_mu);
    stripe.counts.assign(bounds_.size() + 1, 0);
  }
}

void Histogram::record(double x) {
  // Stripe by the recording thread's dense index: a thread always hits the
  // same stripe, so single-threaded recording is as cheap as the old
  // one-mutex scheme while concurrent recorders rarely share a lock.
  Stripe& stripe = stripes_[thread_index() % kStripes];
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  MutexLock lock(stripe.hist_mu);
  ++stripe.counts[bucket];
  stripe.summary.add(x);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  out.bounds = bounds_;
  out.counts.assign(bounds_.size() + 1, 0);
  for (const Stripe& stripe : stripes_) {
    MutexLock lock(stripe.hist_mu);
    for (std::size_t i = 0; i < stripe.counts.size(); ++i) {
      out.counts[i] += stripe.counts[i];
    }
    out.summary.merge(stripe.summary);
  }
  return out;
}

std::vector<double> default_latency_bounds_ms() {
  return {0.01, 0.025, 0.05, 0.1,  0.25, 0.5,  1.0,    2.5,   5.0,
          10.0, 25.0,  50.0, 100.0, 250.0, 500.0, 1000.0, 10000.0};
}

std::vector<double> default_amount_bounds() {
  std::vector<double> bounds;
  for (double b = 1.0; b <= 1048576.0; b *= 2.0) bounds.push_back(b);
  return bounds;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  Shard& shard = shard_for(name);
  MutexLock lock(shard.shard_mu);
  const auto it = shard.counters.find(name);
  if (it != shard.counters.end()) return *it->second;
  return *shard.counters.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  Shard& shard = shard_for(name);
  MutexLock lock(shard.shard_mu);
  const auto it = shard.gauges.find(name);
  if (it != shard.gauges.end()) return *it->second;
  return *shard.gauges.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  Shard& shard = shard_for(name);
  MutexLock lock(shard.shard_mu);
  const auto it = shard.histograms.find(name);
  if (it != shard.histograms.end()) return *it->second;
  if (bounds.empty()) bounds = default_latency_bounds_ms();
  return *shard.histograms
              .emplace(std::string(name),
                       std::make_unique<Histogram>(std::move(bounds)))
              .first->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.shard_mu);
    for (const auto& entry : shard.counters) {
      out.counters.emplace_back(entry.first, entry.second->value());
    }
    for (const auto& entry : shard.gauges) {
      out.gauges.emplace_back(
          entry.first,
          GaugeSnapshot{entry.second->value(), entry.second->max()});
    }
    for (const auto& entry : shard.histograms) {
      out.histograms.emplace_back(entry.first, entry.second->snapshot());
    }
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return out;
}

}  // namespace redist::obs
