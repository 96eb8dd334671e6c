// Introspection endpoint rendering — healthz / statusz / metricsz / journalz.
//
// Renders the process's observability state on demand for the scheduler
// daemon, which serves it over its own rpc port (service/scheduler_service,
// net/rpc.hpp kIntrospectRequest):
//
//   healthz             liveness: {"status":"ok","uptime_ms":...}
//   statusz             uptime, requests served, solves in flight (journal
//                       begun - finished), journal head/dropped, pool
//                       queue depth gauge, solve-cache section
//   metricsz            Prometheus-style text exposition of the installed
//                       MetricsRegistry (see obs/export.hpp)
//   journalz?last=N     versioned JSONL dump of the flight recorder's last
//                       N events (all retained events when N is omitted,
//                       0, or larger than what the journal retains)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/contract_annotations.hpp"

REDIST_LAYER("obs");

namespace redist::obs {

class Journal;
class MetricsRegistry;

/// Renders the body for a request target such as "statusz" or
/// "journalz?last=16". Either sink may be nullptr: the endpoints then
/// report the corresponding surface as uninstalled rather than failing.
/// `uptime_ms` and `requests_served` are the serving process's own.
/// Throws redist::Error on an unknown endpoint or a `last` value that is
/// not a decimal number.
std::string render_introspection(std::string_view target,
                                 const MetricsRegistry* metrics,
                                 const Journal* journal, double uptime_ms,
                                 std::uint64_t requests_served);

}  // namespace redist::obs
