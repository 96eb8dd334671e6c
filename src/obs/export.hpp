// Telemetry exporters (formats documented in docs/OBSERVABILITY.md):
//
//  * write_chrome_trace — Chrome trace_event JSON ("X" complete events);
//    open the file in chrome://tracing or https://ui.perfetto.dev. Thread
//    ids are renumbered densely in order of first appearance so the output
//    is deterministic for a deterministic event stream. The Journal
//    overload renders the flight recorder's ring: a begin/end kind pair
//    (solve, socket attempt, pool task) becomes one span, a regularization
//    or peel step spans from its solve's previous phase event on the same
//    thread, and every other event is an instant (zero-length) span.
//  * write_metrics_json — flat `{"counters": .., "gauges": .., "histograms":
//    ..}` document under the "redist.metrics.v1" schema tag. Empty
//    histograms export null mean/min/max/p50/p95/p99 (JSON has no NaN).
//  * write_metrics_csv — one row per instrument for spreadsheet ingestion
//    (histogram rows carry interpolated p50/p95/p99 columns).
//  * write_metrics_prometheus — Prometheus text exposition (the metricsz
//    endpoint body, obs/introspect.hpp): counters/gauges as-is, histograms
//    as cumulative `_bucket{le=...}` series plus `_sum`/`_count` and
//    interpolated `_p50`/`_p95`/`_p99` gauges. Instrument names are
//    sanitized (dots to underscores) and prefixed `redist_`.
#pragma once

#include <iosfwd>

#include "common/contract_annotations.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

REDIST_LAYER("obs");

namespace redist::obs {

class Journal;

void write_chrome_trace(std::ostream& os, const TraceSession& session);

void write_chrome_trace(std::ostream& os, const Journal& journal);

void write_metrics_json(std::ostream& os, const MetricsRegistry& registry);

void write_metrics_csv(std::ostream& os, const MetricsRegistry& registry);

void write_metrics_prometheus(std::ostream& os,
                              const MetricsRegistry& registry);

}  // namespace redist::obs
