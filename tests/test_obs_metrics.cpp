#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/journal.hpp"
#include "obs/telemetry.hpp"

namespace redist::obs {
namespace {

TEST(ObsMetrics, CounterGaugeBasics) {
  MetricsRegistry registry;
  Counter& c = registry.counter("c");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(&registry.counter("c"), &c);  // stable handle

  Gauge& g = registry.gauge("g");
  g.set(5);
  g.add(-3);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max(), 5);
  g.set(9);
  EXPECT_EQ(g.max(), 9);
  g.set(1);
  EXPECT_EQ(g.max(), 9);  // watermark is sticky
}

TEST(ObsMetrics, HistogramBucketsAndSummary) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("h", {1.0, 10.0, 100.0});
  for (double x : {0.5, 1.0, 5.0, 50.0, 500.0}) h.record(x);
  const HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);  // <= 1:   0.5, 1.0
  EXPECT_EQ(snap.counts[1], 1u);  // <= 10:  5.0
  EXPECT_EQ(snap.counts[2], 1u);  // <= 100: 50.0
  EXPECT_EQ(snap.counts[3], 1u);  // overflow: 500.0
  EXPECT_EQ(snap.summary.count(), 5u);
  EXPECT_DOUBLE_EQ(snap.summary.min(), 0.5);
  EXPECT_DOUBLE_EQ(snap.summary.max(), 500.0);
}

TEST(ObsMetrics, HistogramBoundsAreSortedAndDeduplicated) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("h", {10.0, 1.0, 10.0});
  h.record(5.0);
  const HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.bounds.size(), 2u);
  EXPECT_DOUBLE_EQ(snap.bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(snap.bounds[1], 10.0);
  EXPECT_EQ(snap.counts[1], 1u);
}

// The registry's concurrency contract: counters are exact under any
// interleaving, histograms lose no samples, creation races resolve to one
// instrument per name. Run under TSan in CI.
TEST(ObsMetrics, ConcurrentRecordingIsExact) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIterations = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kIterations; ++i) {
        registry.counter("shared.counter").add();
        registry.counter("worker." + std::to_string(t)).add();
        registry.gauge("shared.gauge").set(t);
        registry.histogram("shared.hist", {0.5}).record(static_cast<double>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(registry.counter("shared.counter").value(),
            static_cast<std::uint64_t>(kThreads) * kIterations);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry.counter("worker." + std::to_string(t)).value(),
              static_cast<std::uint64_t>(kIterations));
  }
  const HistogramSnapshot h = registry.histogram("shared.hist").snapshot();
  EXPECT_EQ(h.summary.count(),
            static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(registry.gauge("shared.gauge").max(), kThreads - 1);
}

TEST(ObsMetrics, SnapshotSortsNames) {
  MetricsRegistry registry;
  registry.counter("zeta").add();
  registry.counter("alpha").add(2);
  registry.gauge("mid").set(7);
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[1].first, "zeta");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second.value, 7);
}

TEST(ObsMetrics, JsonExportSchemaAndNullsForEmptyHistogram) {
  MetricsRegistry registry;
  registry.counter("events").add(3);
  registry.histogram("empty", {1.0});  // created, never recorded
  std::ostringstream os;
  write_metrics_json(os, registry);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"redist.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"events\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"mean\": null"), std::string::npos);
  EXPECT_NE(json.find("\"le\": \"inf\""), std::string::npos);
}

TEST(ObsMetrics, CsvExportHasOneRowPerInstrument) {
  MetricsRegistry registry;
  registry.counter("c").add(4);
  registry.gauge("g").set(-2);
  registry.histogram("h", {1.0}).record(0.5);
  std::ostringstream os;
  write_metrics_csv(os, registry);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("name,kind,count,value,mean,min,max,p50,p95,p99\n"),
            std::string::npos);
  EXPECT_NE(csv.find("c,counter,,4,,,,,,"), std::string::npos);
  EXPECT_NE(csv.find("g,gauge,,-2,,,,,,"), std::string::npos);
  EXPECT_NE(csv.find("h,histogram,1,"), std::string::npos);
}

TEST(ObsMetrics, HistogramQuantilesInterpolateWithinBuckets) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("q", {10.0, 20.0, 30.0});
  // 10 samples in (10, 20]: ranks 1..10 all land in the second bucket.
  for (int i = 0; i < 10; ++i) h.record(15.0);
  const HistogramSnapshot snap = h.snapshot();
  // p50 rank = 5 of 10 -> halfway through [10, 20].
  EXPECT_NEAR(snap.p50(), 15.0, 1e-9);
  // Quantiles never leave the observed range.
  EXPECT_GE(snap.quantile(0.0), snap.summary.min());
  EXPECT_LE(snap.quantile(1.0), snap.summary.max());
}

TEST(ObsMetrics, HistogramQuantilesSpreadAcrossBuckets) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("q2", {10.0, 20.0, 30.0});
  // 50 samples <= 10, 50 in (20, 30]: the median sits at the top of the
  // first bucket, p99 deep in the third.
  for (int i = 0; i < 50; ++i) h.record(5.0);
  for (int i = 0; i < 50; ++i) h.record(25.0);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_LE(snap.p50(), 10.0);
  EXPECT_GT(snap.p99(), 20.0);
  EXPECT_LE(snap.p99(), snap.summary.max());
}

TEST(ObsMetrics, EmptyHistogramQuantileIsNaN) {
  MetricsRegistry registry;
  const HistogramSnapshot snap = registry.histogram("never", {1.0}).snapshot();
  EXPECT_TRUE(std::isnan(snap.p50()));
  EXPECT_TRUE(std::isnan(snap.quantile(0.99)));
}

TEST(ObsMetrics, JsonExportCarriesQuantiles) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lat", {1.0, 10.0});
  for (int i = 0; i < 4; ++i) h.record(0.5);
  std::ostringstream os;
  write_metrics_json(os, registry);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(ObsMetrics, PrometheusExposition) {
  MetricsRegistry registry;
  registry.counter("kpbs.solve.count").add(3);
  registry.gauge("runtime.pool.queue_depth").set(2);
  Histogram& h = registry.histogram("kpbs.solve_ms", {1.0, 10.0});
  h.record(0.5);
  h.record(5.0);
  h.record(50.0);
  std::ostringstream os;
  write_metrics_prometheus(os, registry);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE redist_kpbs_solve_count counter"),
            std::string::npos);
  EXPECT_NE(text.find("redist_kpbs_solve_count 3"), std::string::npos);
  EXPECT_NE(text.find("redist_runtime_pool_queue_depth 2"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE redist_kpbs_solve_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("redist_kpbs_solve_ms_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("redist_kpbs_solve_ms_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("redist_kpbs_solve_ms_count 3"), std::string::npos);
  EXPECT_NE(text.find("redist_kpbs_solve_ms_p50"), std::string::npos);
}

TEST(ObsMetrics, ScopedTelemetryInstallsAndRestores) {
  EXPECT_EQ(metrics(), nullptr);
  EXPECT_EQ(journal(), nullptr);
  {
    MetricsRegistry registry;
    Journal recorder(64);
    ScopedTelemetry scoped(&registry, &recorder);
    EXPECT_EQ(metrics(), &registry);
    EXPECT_EQ(journal(), &recorder);
    {
      MetricsRegistry inner;
      ScopedTelemetry nested(&inner, nullptr);
      EXPECT_EQ(metrics(), &inner);
      EXPECT_EQ(journal(), nullptr);
    }
    EXPECT_EQ(metrics(), &registry);
    EXPECT_EQ(journal(), &recorder);
  }
  EXPECT_EQ(metrics(), nullptr);
  EXPECT_EQ(journal(), nullptr);
}

}  // namespace
}  // namespace redist::obs
