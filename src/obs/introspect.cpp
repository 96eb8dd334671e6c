#include "obs/introspect.hpp"

#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "obs/export.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace redist::obs {

namespace {

constexpr std::size_t kMaxRequestBytes = 1024;

/// Extracts the endpoint target from either a bare line ("statusz") or an
/// HTTP request line ("GET /statusz HTTP/1.1"). Leading '/' is stripped.
std::string parse_target(std::string_view line) {
  if (line.size() >= 4 && (line.substr(0, 4) == "GET " ||
                           line.substr(0, 4) == "get ")) {
    line.remove_prefix(4);
    const std::size_t space = line.find(' ');
    if (space != std::string_view::npos) line = line.substr(0, space);
  }
  while (!line.empty() && line.front() == '/') line.remove_prefix(1);
  while (!line.empty() && (line.back() == '\r' || line.back() == '\n' ||
                           line.back() == ' ')) {
    line.remove_suffix(1);
  }
  return std::string(line);
}

/// Parses the `last` query parameter of "journalz?last=N"; 0 on absence or
/// garbage (0 means "all retained events").
std::size_t parse_last_param(std::string_view query) {
  const std::string_view key = "last=";
  std::size_t pos = 0;
  while (pos < query.size()) {
    const std::size_t amp = query.find('&', pos);
    const std::string_view param =
        query.substr(pos, amp == std::string_view::npos ? query.size() - pos
                                                        : amp - pos);
    if (param.substr(0, key.size()) == key) {
      std::size_t value = 0;
      for (const char c : param.substr(key.size())) {
        if (c < '0' || c > '9') return 0;
        value = value * 10 + static_cast<std::size_t>(c - '0');
      }
      return value;
    }
    if (amp == std::string_view::npos) break;
    pos = amp + 1;
  }
  return 0;
}

const char* status_reason(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    case 400:
      return "Bad Request";
    default:
      return "Error";
  }
}

}  // namespace

IntrospectionServer::IntrospectionServer(MetricsRegistry* metrics,
                                         Journal* journal,
                                         IntrospectOptions options)
    : metrics_(metrics),
      journal_(journal),
      options_(options),
      listener_(TcpListener::bind_loopback()),
      start_ns_(Stopwatch::now_ns()) {
  listener_.set_accept_timeout_ms(options_.accept_poll_ms);
  thread_ = std::thread([this] { serve(); });
}

IntrospectionServer::~IntrospectionServer() { stop(); }

void IntrospectionServer::stop() {
  stopping_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void IntrospectionServer::serve() {
  while (!stopping_.load(std::memory_order_acquire)) {
    try {
      handle_connection(listener_.accept());
    } catch (const TimeoutError&) {
      // Accept poll expired — loop to re-check the stop flag.
    } catch (const Error&) {
      // A broken connection must not kill the serving thread.
    }
  }
}

void IntrospectionServer::handle_connection(TcpStream stream) {
  stream.set_io_timeout_ms(options_.io_timeout_ms);
  stream.set_nodelay(true);

  std::string line;
  line.reserve(64);
  while (line.size() < kMaxRequestBytes) {
    char c = 0;
    stream.recv_all(&c, 1);
    if (c == '\n') break;
    line.push_back(c);
  }

  const std::string target = parse_target(line);
  const Response response = respond(target);
  requests_.fetch_add(1, std::memory_order_relaxed);

  std::ostringstream os;
  os << "HTTP/1.0 " << response.status << " " << status_reason(response.status)
     << "\r\nContent-Type: " << response.content_type
     << "\r\nContent-Length: " << response.body.size()
     << "\r\nConnection: close\r\n\r\n"
     << response.body;
  const std::string wire = os.str();
  stream.send_all(wire.data(), wire.size());
}

IntrospectionServer::Response IntrospectionServer::respond(
    std::string_view target) const {
  std::string_view path = target;
  std::string_view query;
  const std::size_t qmark = target.find('?');
  if (qmark != std::string_view::npos) {
    path = target.substr(0, qmark);
    query = target.substr(qmark + 1);
  }

  Response response;
  const double uptime_ms =
      static_cast<double>(Stopwatch::now_ns() - start_ns_) / 1e6;

  if (path == "healthz") {
    std::ostringstream os;
    os << "{\"status\":\"ok\",\"uptime_ms\":" << json_number(uptime_ms)
       << "}\n";
    response.content_type = "application/json";
    response.body = os.str();
    return response;
  }

  if (path == "statusz") {
    std::ostringstream os;
    os << "{\"uptime_ms\":" << json_number(uptime_ms);
    os << ",\"requests_served\":" << requests_served();
    if (journal_ != nullptr) {
      const std::uint64_t begun = journal_->solves_begun();
      const std::uint64_t finished = journal_->solves_finished();
      os << ",\"solves_begun\":" << begun
         << ",\"solves_finished\":" << finished << ",\"solves_in_flight\":"
         << (begun >= finished ? begun - finished : 0);
      os << ",\"journal\":{\"head_seq\":" << journal_->head_seq()
         << ",\"recorded\":" << journal_->total_recorded()
         << ",\"dropped\":" << journal_->dropped()
         << ",\"capacity\":" << journal_->capacity() << "}";
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
    if (metrics_ != nullptr) {
      const MetricsSnapshot snapshot = metrics_->snapshot();
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
    response.content_type = "application/json";
    response.body = os.str();
    return response;
  }

  if (path == "metricsz") {
    std::ostringstream os;
    if (metrics_ != nullptr) {
      write_metrics_prometheus(os, *metrics_);
    } else {
      os << "# no metrics registry installed\n";
    }
    response.body = os.str();
    return response;
  }

  if (path == "journalz") {
    std::ostringstream os;
    if (journal_ != nullptr) {
      std::size_t last = parse_last_param(query);
      if (last == 0) last = options_.journal_default_last;
      write_journal_jsonl(os, *journal_, last);
    } else {
      os << "{\"schema\":\"redist.journal.v1\",\"events\":0,"
            "\"error\":\"no journal installed\"}\n";
    }
    response.body = os.str();
    return response;
  }

  response.status = 404;
  response.body = "unknown endpoint; try healthz, statusz, metricsz, "
                  "journalz?last=N\n";
  return response;
}

}  // namespace redist::obs
