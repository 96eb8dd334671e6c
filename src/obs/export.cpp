#include "obs/export.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <ostream>
#include <tuple>
#include <unordered_map>

#include "obs/journal.hpp"

namespace redist::obs {

namespace {

// Nanoseconds as decimal microseconds ("123.456") — exact, locale-free.
std::string ns_as_us(std::uint64_t ns) {
  std::string out = std::to_string(ns / 1000);
  const std::uint64_t rem = ns % 1000;
  out.push_back('.');
  out.push_back(static_cast<char>('0' + rem / 100));
  out.push_back(static_cast<char>('0' + rem / 10 % 10));
  out.push_back(static_cast<char>('0' + rem % 10));
  return out;
}

void write_histogram_json(std::ostream& os, const HistogramSnapshot& h,
                          const char* indent) {
  const bool empty = h.summary.count() == 0;
  os << "{\n"
     << indent << "  \"count\": " << h.summary.count() << ",\n"
     << indent << "  \"sum\": " << json_number(empty ? 0.0 : h.summary.sum())
     << ",\n";
  const auto stat = [&](const char* key, double v, const char* sep) {
    os << indent << "  \"" << key << "\": ";
    if (empty) {
      os << "null";
    } else {
      os << json_number(v);
    }
    os << sep;
  };
  stat("mean", empty ? 0.0 : h.summary.mean(), ",\n");
  stat("min", empty ? 0.0 : h.summary.min(), ",\n");
  stat("max", empty ? 0.0 : h.summary.max(), ",\n");
  stat("stddev", h.summary.stddev(), ",\n");
  stat("p50", empty ? 0.0 : h.p50(), ",\n");
  stat("p95", empty ? 0.0 : h.p95(), ",\n");
  stat("p99", empty ? 0.0 : h.p99(), ",\n");
  os << indent << "  \"buckets\": [";
  for (std::size_t b = 0; b < h.counts.size(); ++b) {
    if (b > 0) os << ", ";
    os << "{\"le\": "
       << (b < h.bounds.size() ? json_number(h.bounds[b])
                               : std::string("\"inf\""))
       << ", \"count\": " << h.counts[b] << "}";
  }
  os << "]\n" << indent << "}";
}

enum class Role { kInstant, kBegin, kEnd, kPhase };

// How a journal event renders in the Chrome trace: its span's name and
// category, its role in the span, and the arg names of its a, b and v
// slots (nullptr: not shown). Indexed by JournalEventKind, whose comments
// give the slot meanings; an end kind directly follows its begin kind.
struct TraceShape {
  const char* name;
  const char* cat;
  Role role;
  const char* slots[3];
};

constexpr TraceShape kTraceShapes[] = {
    {"solve_kpbs", "kpbs", Role::kBegin, {"nodes", "edges"}},
    {"solve_kpbs", "kpbs", Role::kEnd, {"steps", "cost", "ratio"}},
    {"wrgp.step", "kpbs", Role::kPhase, {"step", "matched_edges", "amount"}},
    {"pool_enqueue", "runtime", Role::kInstant, {"depth"}},
    {"pool.task", "runtime", Role::kBegin, {nullptr, nullptr, "wait_ms"}},
    {"pool.task", "runtime", Role::kEnd, {nullptr, nullptr, "run_ms"}},
    {"retry", "robust", Role::kInstant, {"attempt"}},
    {"fault_injected", "robust", Role::kInstant, {"site", "rules"}},
    {"socket.robust.attempt", "socket", Role::kBegin, {"attempt"}},
    {"socket.robust.attempt", "socket", Role::kEnd,
     {nullptr, "failed", "delivered_bytes"}},
    {"recovery_spliced", "socket", Role::kInstant,
     {"attempt", "residual_edges"}},
    {"rpc_request", "service", Role::kInstant, {"tag", "bytes"}},
    {"cache_hit", "service", Role::kInstant, {"hits"}},
    {"cache_miss", "service", Role::kInstant, {"cached"}},
    {"cache_evict", "service", Role::kInstant, {"hits", "left"}},
    {"regularize", "kpbs", Role::kPhase, {"c", "filler_edges"}},
};
static_assert(std::size(kTraceShapes) ==
                  static_cast<std::size_t>(JournalEventKind::kRegularized) + 1,
              "trace shape table out of sync with JournalEventKind");

std::vector<TraceEvent> trace_events(const Journal& journal) {
  std::vector<TraceEvent> out;
  // Per (begin kind, thread, solve): the spans begun and not yet ended.
  // Per (thread, solve): when its last begin or phase event was recorded.
  std::map<std::tuple<std::size_t, std::uint32_t, std::uint64_t>,
           std::vector<std::size_t>>
      open;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> phase_end;
  for (const JournalEvent& e : journal.snapshot()) {
    const auto kind = static_cast<std::size_t>(e.kind);
    const TraceShape& shape = kTraceShapes[kind];
    std::vector<std::size_t>& begun =
        open[{shape.role == Role::kEnd ? kind - 1 : kind, e.tid, e.solve_id}];
    TraceEvent* event = nullptr;
    if (shape.role == Role::kEnd && !begun.empty()) {
      event = &out[begun.back()];
      begun.pop_back();
      event->dur_ns = e.ts_ns - event->ts_ns;
    } else {
      event = &out.emplace_back(
          TraceEvent{shape.name, shape.cat, e.ts_ns, 0, e.tid, {}});
      if (e.solve_id != 0) {
        event->args.push_back({"solve", std::to_string(e.solve_id)});
      }
      if (shape.role == Role::kBegin) begun.push_back(out.size() - 1);
    }
    if (shape.role == Role::kBegin || shape.role == Role::kPhase) {
      const auto [last, first] =
          phase_end.try_emplace({e.tid, e.solve_id}, e.ts_ns);
      if (shape.role == Role::kPhase && !first) {
        event->ts_ns = last->second;
        event->dur_ns = e.ts_ns - last->second;
      }
      last->second = e.ts_ns;
    }
    const std::string values[] = {std::to_string(e.a), std::to_string(e.b),
                                  json_number(e.v)};
    for (std::size_t slot = 0; slot < 3; ++slot) {
      if (shape.slots[slot] != nullptr) {
        event->args.push_back({shape.slots[slot], values[slot]});
      }
    }
  }
  return out;
}

void write_trace_events(std::ostream& os, std::vector<TraceEvent> events) {
  // Stable order: by begin time, outermost (longest) span first on ties, so
  // nesting renders identically run to run under a deterministic clock.
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                     if (a.dur_ns != b.dur_ns) return a.dur_ns > b.dur_ns;
                     return std::strcmp(a.name, b.name) < 0;
                   });
  std::unordered_map<std::uint32_t, std::uint32_t> tid_index;
  for (const TraceEvent& event : events) {
    tid_index.emplace(event.tid, static_cast<std::uint32_t>(tid_index.size()));
  }

  os << "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    os << "{\"name\": " << json_quote(event.name)
       << ", \"cat\": " << json_quote(event.cat)
       << ", \"ph\": \"X\", \"ts\": " << ns_as_us(event.ts_ns)
       << ", \"dur\": " << ns_as_us(event.dur_ns)
       << ", \"pid\": 1, \"tid\": " << tid_index.at(event.tid);
    if (!event.args.empty()) {
      os << ", \"args\": {";
      for (std::size_t a = 0; a < event.args.size(); ++a) {
        if (a > 0) os << ", ";
        os << json_quote(event.args[a].key) << ": "
           << event.args[a].json_value;
      }
      os << "}";
    }
    os << "}" << (i + 1 < events.size() ? "," : "") << "\n";
  }
  os << "]\n}\n";
}

}  // namespace

void write_chrome_trace(std::ostream& os, const TraceSession& session) {
  write_trace_events(os, session.snapshot());
}

void write_chrome_trace(std::ostream& os, const Journal& journal) {
  write_trace_events(os, trace_events(journal));
}

void write_metrics_json(std::ostream& os, const MetricsRegistry& registry) {
  const MetricsSnapshot snap = registry.snapshot();
  os << "{\n\"schema\": \"redist.metrics.v1\",\n\"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    os << (i > 0 ? ",\n  " : "\n  ") << json_quote(snap.counters[i].first)
       << ": " << snap.counters[i].second;
  }
  os << "\n},\n\"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    os << (i > 0 ? ",\n  " : "\n  ") << json_quote(snap.gauges[i].first)
       << ": {\"value\": " << snap.gauges[i].second.value
       << ", \"max\": " << snap.gauges[i].second.max << "}";
  }
  os << "\n},\n\"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    os << (i > 0 ? ",\n  " : "\n  ") << json_quote(snap.histograms[i].first)
       << ": ";
    write_histogram_json(os, snap.histograms[i].second, "  ");
  }
  os << "\n}\n}\n";
}

void write_metrics_csv(std::ostream& os, const MetricsRegistry& registry) {
  const MetricsSnapshot snap = registry.snapshot();
  os << "name,kind,count,value,mean,min,max,p50,p95,p99\n";
  for (const auto& [name, value] : snap.counters) {
    os << name << ",counter,," << value << ",,,,,,\n";
  }
  for (const auto& [name, gauge] : snap.gauges) {
    os << name << ",gauge,," << gauge.value << ",,,,,," << "\n";
  }
  for (const auto& [name, hist] : snap.histograms) {
    os << name << ",histogram," << hist.summary.count() << ","
       << json_number(hist.summary.count() > 0 ? hist.summary.sum() : 0.0);
    if (hist.summary.count() > 0) {
      os << "," << json_number(hist.summary.mean()) << ","
         << json_number(hist.summary.min()) << ","
         << json_number(hist.summary.max()) << ","
         << json_number(hist.p50()) << "," << json_number(hist.p95()) << ","
         << json_number(hist.p99());
    } else {
      os << ",,,,,,";
    }
    os << "\n";
  }
}

void write_metrics_prometheus(std::ostream& os,
                              const MetricsRegistry& registry) {
  const MetricsSnapshot snap = registry.snapshot();
  const auto prom_name = [](const std::string& name) {
    std::string out = "redist_";
    for (const char c : name) {
      const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
      out.push_back(keep ? c : '_');
    }
    return out;
  };
  for (const auto& [name, value] : snap.counters) {
    const std::string p = prom_name(name);
    os << "# TYPE " << p << " counter\n" << p << " " << value << "\n";
  }
  for (const auto& [name, gauge] : snap.gauges) {
    const std::string p = prom_name(name);
    os << "# TYPE " << p << " gauge\n" << p << " " << gauge.value << "\n";
    os << "# TYPE " << p << "_max gauge\n"
       << p << "_max " << gauge.max << "\n";
  }
  for (const auto& [name, hist] : snap.histograms) {
    const std::string p = prom_name(name);
    os << "# TYPE " << p << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < hist.counts.size(); ++b) {
      cumulative += hist.counts[b];
      os << p << "_bucket{le=\""
         << (b < hist.bounds.size() ? json_number(hist.bounds[b])
                                    : std::string("+Inf"))
         << "\"} " << cumulative << "\n";
    }
    const bool empty = hist.summary.count() == 0;
    os << p << "_sum " << json_number(empty ? 0.0 : hist.summary.sum())
       << "\n";
    os << p << "_count " << hist.summary.count() << "\n";
    if (!empty) {
      os << "# TYPE " << p << "_p50 gauge\n"
         << p << "_p50 " << json_number(hist.p50()) << "\n";
      os << "# TYPE " << p << "_p95 gauge\n"
         << p << "_p95 " << json_number(hist.p95()) << "\n";
      os << "# TYPE " << p << "_p99 gauge\n"
         << p << "_p99 " << json_number(hist.p99()) << "\n";
    }
  }
}

}  // namespace redist::obs
