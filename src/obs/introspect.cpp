#include "obs/introspect.hpp"

#include <cstdint>
#include <sstream>

#include "common/error.hpp"
#include "obs/export.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace redist::obs {

namespace {

/// Parses the `last` query parameter of "journalz?last=N"; 0 when absent
/// (0 means "all retained events"). A value past SIZE_MAX saturates, which
/// also means all of them. Throws on a value that is not a decimal number.
std::size_t parse_last_param(std::string_view query) {
  const std::string_view key = "last=";
  std::size_t pos = 0;
  while (pos < query.size()) {
    const std::size_t amp = query.find('&', pos);
    const std::string_view param =
        query.substr(pos, amp == std::string_view::npos ? query.size() - pos
                                                        : amp - pos);
    if (param.substr(0, key.size()) == key) {
      const std::string_view digits = param.substr(key.size());
      if (digits.empty() ||
          digits.find_first_not_of("0123456789") != std::string_view::npos) {
        throw Error("journalz: last= wants a decimal count, got '" +
                    std::string(digits) + "'");
      }
      std::size_t value = 0;
      for (const char c : digits) {
        const auto d = static_cast<std::size_t>(c - '0');
        value = value > (SIZE_MAX - d) / 10 ? SIZE_MAX : value * 10 + d;
      }
      return value;
    }
    if (amp == std::string_view::npos) break;
    pos = amp + 1;
  }
  return 0;
}

}  // namespace

std::string render_introspection(std::string_view target,
                                 const MetricsRegistry* metrics,
                                 const Journal* journal, double uptime_ms,
                                 std::uint64_t requests_served) {
  std::string_view path = target;
  std::string_view query;
  const std::size_t qmark = target.find('?');
  if (qmark != std::string_view::npos) {
    path = target.substr(0, qmark);
    query = target.substr(qmark + 1);
  }

  std::ostringstream os;
  if (path == "healthz") {
    os << "{\"status\":\"ok\",\"uptime_ms\":" << json_number(uptime_ms)
       << "}\n";
  } else if (path == "statusz") {
    os << "{\"uptime_ms\":" << json_number(uptime_ms);
    os << ",\"requests_served\":" << requests_served;
    if (journal != nullptr) {
      const std::uint64_t begun = journal->solves_begun();
      const std::uint64_t finished = journal->solves_finished();
      os << ",\"solves_begun\":" << begun
         << ",\"solves_finished\":" << finished << ",\"solves_in_flight\":"
         << (begun >= finished ? begun - finished : 0);
      os << ",\"journal\":{\"head_seq\":" << journal->head_seq()
         << ",\"recorded\":" << journal->total_recorded()
         << ",\"dropped\":" << journal->dropped()
         << ",\"capacity\":" << journal->capacity() << "}";
    } else {
      os << ",\"journal\":null";
    }
    std::int64_t queue_depth = 0;
    std::int64_t queue_depth_max = 0;
    bool have_pool_gauge = false;
    // Scheduler-daemon cache section: surfaced when any service.cache.*
    // instrument exists in the installed registry (docs/SERVICE.md).
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_evictions = 0;
    std::int64_t cache_entries = 0;
    bool have_cache = false;
    if (metrics != nullptr) {
      const MetricsSnapshot snapshot = metrics->snapshot();
      for (const auto& [name, gauge] : snapshot.gauges) {
        if (name == "runtime.pool.queue_depth") {
          queue_depth = gauge.value;
          queue_depth_max = gauge.max;
          have_pool_gauge = true;
        } else if (name == "service.cache.entries") {
          cache_entries = gauge.value;
          have_cache = true;
        }
      }
      for (const auto& [name, count] : snapshot.counters) {
        if (name == "service.cache.hits") {
          cache_hits = count;
          have_cache = true;
        } else if (name == "service.cache.misses") {
          cache_misses = count;
          have_cache = true;
        } else if (name == "service.cache.evictions") {
          cache_evictions = count;
          have_cache = true;
        }
      }
    }
    if (have_pool_gauge) {
      os << ",\"pool_queue_depth\":" << queue_depth
         << ",\"pool_queue_depth_max\":" << queue_depth_max;
    } else {
      os << ",\"pool_queue_depth\":null";
    }
    if (have_cache) {
      const std::uint64_t lookups = cache_hits + cache_misses;
      os << ",\"cache\":{\"entries\":" << cache_entries
         << ",\"hits\":" << cache_hits << ",\"misses\":" << cache_misses
         << ",\"evictions\":" << cache_evictions << ",\"hit_rate\":"
         << json_number(lookups == 0 ? 0.0
                                     : static_cast<double>(cache_hits) /
                                           static_cast<double>(lookups))
         << "}";
    } else {
      os << ",\"cache\":null";
    }
    os << "}\n";
  } else if (path == "metricsz") {
    if (metrics != nullptr) {
      write_metrics_prometheus(os, *metrics);
    } else {
      os << "# no metrics registry installed\n";
    }
  } else if (path == "journalz") {
    const std::size_t last = parse_last_param(query);
    if (journal != nullptr) {
      write_journal_jsonl(os, *journal, last);
    } else {
      os << "{\"schema\":\"redist.journal.v1\",\"events\":0,"
            "\"error\":\"no journal installed\"}\n";
    }
  } else {
    throw Error("unknown endpoint '" + std::string(path) +
                "'; try healthz, statusz, metricsz, journalz?last=N");
  }
  return os.str();
}

}  // namespace redist::obs
