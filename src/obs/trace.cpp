#include "obs/trace.hpp"

#include <cmath>
#include <cstdio>

#include "common/stopwatch.hpp"
#include "obs/telemetry.hpp"

namespace redist::obs {

TraceSession::TraceSession(std::function<std::uint64_t()> clock)
    : clock_(std::move(clock)),
      origin_ns_(clock_ ? 0 : Stopwatch::now_ns()) {}

std::uint64_t TraceSession::now() const {
  if (clock_) return clock_();
  return Stopwatch::now_ns() - origin_ns_;
}

void TraceSession::record(TraceEvent&& event) {
  MutexLock lock(trace_mu_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> TraceSession::snapshot() const {
  MutexLock lock(trace_mu_);
  return events_;
}

std::size_t TraceSession::event_count() const {
  MutexLock lock(trace_mu_);
  return events_.size();
}

std::uint32_t TraceSession::current_tid() { return thread_index(); }

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", v);
  return buffer;
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
        break;
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace redist::obs
