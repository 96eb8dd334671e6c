// Scoped spans collected into a TraceSession and exported as Chrome
// trace_event JSON (obs/export.hpp; loads in chrome://tracing and
// https://ui.perfetto.dev).
//
// The library itself records no spans: its events go to the flight-recorder
// journal (obs/journal.hpp), whose Chrome trace shares this file's
// TraceEvent and the exporter's formatting. A TraceSession is a collector
// that a caller owns and passes to its own spans explicitly (bench/e2e's
// per-layer timing); nothing installs one process-wide.
//
// A TraceSpan is an RAII scope: construction stamps the begin time,
// destruction stamps the duration and records one complete ("X") event.
// Spans nest by wall-clock containment per thread — the exporter does not
// maintain an explicit tree; Perfetto reconstructs it from ts/dur/tid.
//
// The session clock is injectable (tests pin a deterministic counter clock
// for golden-output comparison); the default shares
// common/stopwatch.hpp's steady_clock nanosecond timebase with every
// benchmark in the repo, so span timings and bench timings are directly
// comparable.
//
// Event names/categories are stored as const char* — pass string literals
// (or strings that outlive the session); dynamic values belong in args.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/contract_annotations.hpp"
#include "common/sync.hpp"

REDIST_LAYER("obs");

namespace redist::obs {

/// One span argument, value pre-rendered as a JSON token (number, quoted
/// string, true/false) so the exporter can splice it verbatim.
struct TraceArg {
  std::string key;
  std::string json_value;
};

struct TraceEvent {
  const char* name = "";
  const char* cat = "";
  std::uint64_t ts_ns = 0;   ///< begin time, session timebase
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;     ///< process-unique thread index
  std::vector<TraceArg> args;
};

/// Collects span events from any thread (mutex-protected append).
class TraceSession {
 public:
  /// `clock` returns nanoseconds on a monotonic timebase; it must be
  /// thread-safe if spans are recorded concurrently. Empty uses
  /// steady_clock, rebased so the session starts near t=0.
  explicit TraceSession(std::function<std::uint64_t()> clock = {});

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  std::uint64_t now() const;
  REDIST_NOBLOCK
  void record(TraceEvent&& event);

  std::vector<TraceEvent> snapshot() const;
  std::size_t event_count() const;

  /// Dense per-thread index (assigned on first use per thread).
  static std::uint32_t current_tid();

 private:
  // Both immutable after construction: clock_ is called (const) from any
  // thread, origin_ns_ only rebases the default clock.
  const std::function<std::uint64_t()> clock_;
  const std::uint64_t origin_ns_;
  mutable Mutex trace_mu_ REDIST_LOCK_RANK(75);
  std::vector<TraceEvent> events_ REDIST_GUARDED_BY(trace_mu_);
};

/// Renders a double as a JSON number token (no exponent surprises for the
/// golden tests; NaN/inf degrade to 0 since JSON has no spelling for them).
std::string json_number(double v);
/// Renders a string as a quoted, escaped JSON token.
std::string json_quote(std::string_view s);

/// RAII span. A null session makes every operation a no-op, so call sites
/// unconditionally construct spans and pay one branch when tracing is off.
class TraceSpan {
 public:
  TraceSpan(TraceSession* session, const char* name, const char* cat = "kpbs")
      : session_(session) {
    if (session_ != nullptr) {
      event_.name = name;
      event_.cat = cat;
      event_.ts_ns = session_->now();
      event_.tid = TraceSession::current_tid();
    }
  }

  ~TraceSpan() {
    if (session_ != nullptr) {
      event_.dur_ns = session_->now() - event_.ts_ns;
      session_->record(std::move(event_));
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// True when the span is actually recording — lets call sites skip
  /// arg-formatting work entirely when tracing is off.
  explicit operator bool() const { return session_ != nullptr; }

  template <typename T, std::enable_if_t<std::is_integral_v<T> &&
                                             !std::is_same_v<T, bool>,
                                         int> = 0>
  void arg(const char* key, T v) {
    if (session_ != nullptr) {
      event_.args.push_back(
          TraceArg{key, std::to_string(static_cast<std::int64_t>(v))});
    }
  }
  void arg(const char* key, bool v) {
    if (session_ != nullptr) {
      event_.args.push_back(TraceArg{key, v ? "true" : "false"});
    }
  }
  void arg(const char* key, double v) {
    if (session_ != nullptr) {
      event_.args.push_back(TraceArg{key, json_number(v)});
    }
  }
  void arg(const char* key, std::string_view v) {
    if (session_ != nullptr) {
      event_.args.push_back(TraceArg{key, json_quote(v)});
    }
  }

 private:
  TraceSession* session_;
  TraceEvent event_;
};

}  // namespace redist::obs
