#include "obs/journal.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <ostream>
#include <utility>

#include "common/stopwatch.hpp"
#include "obs/trace.hpp"

namespace redist::obs {

namespace {

constexpr const char* kKindNames[] = {
    "solve_begin",      "solve_end",      "peel_step",     "pool_enqueue",
    "pool_start",       "pool_finish",    "retry",         "fault_injected",
    "attempt_begin",    "attempt_end",    "recovery_spliced", "rpc_request",
    "cache_hit",        "cache_miss",     "cache_evict",   "regularized",
};

}  // namespace

const char* journal_event_kind_name(JournalEventKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  constexpr std::size_t kCount = sizeof(kKindNames) / sizeof(kKindNames[0]);
  static_assert(kCount ==
                    static_cast<std::size_t>(JournalEventKind::kRegularized) +
                        1,
                "kind name table out of sync with JournalEventKind");
  return index < kCount ? kKindNames[index] : "unknown";
}

Journal::Journal(std::size_t capacity, std::function<std::uint64_t()> clock)
    : stripe_capacity_(std::max<std::size_t>(capacity / kStripes, 1)),
      capacity_(stripe_capacity_ * kStripes),
      clock_(std::move(clock)) {
  if (!clock_) {
    const std::uint64_t origin = Stopwatch::now_ns();
    clock_ = [origin] { return Stopwatch::now_ns() - origin; };
  }
  for (Stripe& stripe : stripes_) {
    MutexLock lock(stripe.journal_mu);
    stripe.ring.resize(stripe_capacity_);
  }
}

void Journal::record(JournalEventKind kind, std::int64_t a, std::int64_t b,
                     double v) {
  record_for(SolveIdScope::current(), kind, a, b, v);
}

void Journal::record_for(std::uint64_t solve_id, JournalEventKind kind,
                         std::int64_t a, std::int64_t b, double v) {
  JournalEvent event;
  event.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  event.ts_ns = clock_();
  event.solve_id = solve_id;
  event.a = a;
  event.b = b;
  event.v = v;
  event.tid = thread_index();
  event.kind = kind;

  if (kind == JournalEventKind::kSolveBegin) {
    solves_begun_.fetch_add(1, std::memory_order_relaxed);
  } else if (kind == JournalEventKind::kSolveEnd) {
    solves_finished_.fetch_add(1, std::memory_order_relaxed);
  }

  Stripe& stripe = stripes_[event.seq % kStripes];
  const std::size_t slot =
      static_cast<std::size_t>((event.seq / kStripes) % stripe_capacity_);
  MutexLock lock(stripe.journal_mu);
  stripe.ring[slot] = event;
  ++stripe.appended;
}

std::vector<JournalEvent> Journal::snapshot(std::size_t last_n) const {
  std::vector<JournalEvent> events;
  events.reserve(capacity_);
  for (const Stripe& stripe : stripes_) {
    MutexLock lock(stripe.journal_mu);
    const std::size_t filled = static_cast<std::size_t>(
        std::min<std::uint64_t>(stripe.appended, stripe.ring.size()));
    // Slots fill in index order within a stripe, so [0, filled) are live.
    events.insert(events.end(), stripe.ring.begin(),
                  stripe.ring.begin() + static_cast<std::ptrdiff_t>(filled));
  }
  std::sort(events.begin(), events.end(),
            [](const JournalEvent& lhs, const JournalEvent& rhs) {
              return lhs.seq < rhs.seq;
            });
  if (last_n != 0 && events.size() > last_n) {
    events.erase(events.begin(),
                 events.end() - static_cast<std::ptrdiff_t>(last_n));
  }
  return events;
}

namespace {

// Async-signal-safe write: no buffering, retry on EINTR, best effort.
void raw_write(int fd, const char* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return;
    }
  }
}

void raw_write_str(int fd, const char* s) { raw_write(fd, s, std::strlen(s)); }

// Formats an unsigned integer into buf (at least 21 bytes); returns length.
std::size_t fmt_u64(std::uint64_t value, char* buf) {
  char tmp[21];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  for (std::size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

void raw_write_u64(int fd, std::uint64_t value) {
  char buf[21];
  raw_write(fd, buf, fmt_u64(value, buf));
}

void raw_write_i64(int fd, std::int64_t value) {
  if (value < 0) {
    raw_write_str(fd, "-");
    raw_write_u64(fd, static_cast<std::uint64_t>(-(value + 1)) + 1);
  } else {
    raw_write_u64(fd, static_cast<std::uint64_t>(value));
  }
}

// v rendered at fixed milli precision — signal context cannot use snprintf
// for doubles portably without locale/allocation concerns.
void raw_write_milli(int fd, double v) {
  if (v < 0) {
    raw_write_str(fd, "-");
    v = -v;
  }
  const std::uint64_t scaled = static_cast<std::uint64_t>(v * 1000.0 + 0.5);
  raw_write_u64(fd, scaled / 1000);
  raw_write_str(fd, ".");
  char frac[4] = {'0', '0', '0', '\0'};
  std::uint64_t rem = scaled % 1000;
  for (int i = 2; i >= 0; --i) {
    frac[i] = static_cast<char>('0' + rem % 10);
    rem /= 10;
  }
  raw_write_str(fd, frac);
}

}  // namespace

// Signal-path dump: reads ring slots without taking stripe locks — a lock
// in a signal handler can self-deadlock if the interrupted thread holds it.
// Torn events are acceptable in a crash dump, so thread-safety analysis is
// deliberately suppressed here.
void Journal::dump_to_fd(int fd) const REDIST_NO_THREAD_SAFETY_ANALYSIS {
  raw_write_str(fd, "{\"schema\":\"redist.journal.v1\",\"crash\":true,");
  raw_write_str(fd, "\"capacity\":");
  raw_write_u64(fd, capacity_);
  raw_write_str(fd, ",\"recorded\":");
  raw_write_u64(fd, total_recorded());
  raw_write_str(fd, "}\n");
  for (const Stripe& stripe : stripes_) {
    const std::size_t filled = static_cast<std::size_t>(
        std::min<std::uint64_t>(stripe.appended, stripe.ring.size()));
    for (std::size_t i = 0; i < filled; ++i) {
      const JournalEvent& e = stripe.ring[i];
      raw_write_str(fd, "{\"seq\":");
      raw_write_u64(fd, e.seq);
      raw_write_str(fd, ",\"ts_ns\":");
      raw_write_u64(fd, e.ts_ns);
      raw_write_str(fd, ",\"solve\":");
      raw_write_u64(fd, e.solve_id);
      raw_write_str(fd, ",\"kind\":\"");
      raw_write_str(fd, journal_event_kind_name(e.kind));
      raw_write_str(fd, "\",\"tid\":");
      raw_write_u64(fd, e.tid);
      raw_write_str(fd, ",\"a\":");
      raw_write_i64(fd, e.a);
      raw_write_str(fd, ",\"b\":");
      raw_write_i64(fd, e.b);
      raw_write_str(fd, ",\"v\":");
      raw_write_milli(fd, e.v);
      raw_write_str(fd, "}\n");
    }
  }
}

void write_journal_jsonl(std::ostream& os, const Journal& journal,
                         std::size_t last_n) {
  const std::vector<JournalEvent> events = journal.snapshot(last_n);
  os << "{\"schema\":\"redist.journal.v1\",\"capacity\":" << journal.capacity()
     << ",\"recorded\":" << journal.total_recorded()
     << ",\"dropped\":" << journal.dropped() << ",\"events\":" << events.size()
     << "}\n";
  // Dense tid renumbering in order of first appearance, like the Chrome
  // trace exporter: dumps stay stable across runs of differently threaded
  // test binaries.
  std::map<std::uint32_t, std::uint32_t> tid_map;
  for (const JournalEvent& e : events) {
    const auto [it, inserted] =
        tid_map.emplace(e.tid, static_cast<std::uint32_t>(tid_map.size()));
    os << "{\"seq\":" << e.seq << ",\"ts_ns\":" << e.ts_ns
       << ",\"solve\":" << e.solve_id << ",\"kind\":\""
       << journal_event_kind_name(e.kind) << "\",\"tid\":" << it->second
       << ",\"a\":" << e.a << ",\"b\":" << e.b << ",\"v\":" << json_number(e.v)
       << "}\n";
    static_cast<void>(inserted);
  }
}

namespace {

std::atomic<std::uint64_t> g_next_solve_id{1};
thread_local std::uint64_t t_current_solve_id = 0;

}  // namespace

std::uint64_t allocate_solve_id() {
  return g_next_solve_id.fetch_add(1, std::memory_order_relaxed);
}

SolveIdScope::SolveIdScope(std::uint64_t id) : previous_(t_current_solve_id) {
  t_current_solve_id = id;
}

SolveIdScope::~SolveIdScope() { t_current_solve_id = previous_; }

std::uint64_t SolveIdScope::current() { return t_current_solve_id; }

// ---------------------------------------------------------------------------
// Fatal-signal dump.

namespace {

constexpr int kDumpSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT};
constexpr std::size_t kDumpSignalCount =
    sizeof(kDumpSignals) / sizeof(kDumpSignals[0]);

std::atomic<Journal*> g_signal_journal{nullptr};
char g_signal_path[512] = {0};
struct sigaction g_previous_actions[kDumpSignalCount];
bool g_signal_dump_installed = false;

extern "C" void journal_signal_handler(int sig) {
  Journal* const journal = g_signal_journal.load(std::memory_order_relaxed);
  if (journal != nullptr && g_signal_path[0] != '\0') {
    const int fd =
        ::open(g_signal_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      journal->dump_to_fd(fd);
      ::close(fd);
    }
  }
  // Re-raise with the default disposition so the process still dies with
  // the original signal (exit status, core dumps, CI reporting all intact).
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

void install_signal_dump(Journal* journal, const std::string& path) {
  uninstall_signal_dump();
  if (journal == nullptr || path.empty() ||
      path.size() >= sizeof(g_signal_path)) {
    return;
  }
  std::memcpy(g_signal_path, path.c_str(), path.size() + 1);
  g_signal_journal.store(journal, std::memory_order_relaxed);
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = &journal_signal_handler;
  sigemptyset(&action.sa_mask);
  for (std::size_t i = 0; i < kDumpSignalCount; ++i) {
    ::sigaction(kDumpSignals[i], &action, &g_previous_actions[i]);
  }
  g_signal_dump_installed = true;
}

void uninstall_signal_dump() {
  if (!g_signal_dump_installed) return;
  for (std::size_t i = 0; i < kDumpSignalCount; ++i) {
    ::sigaction(kDumpSignals[i], &g_previous_actions[i], nullptr);
  }
  g_signal_journal.store(nullptr, std::memory_order_relaxed);
  g_signal_path[0] = '\0';
  g_signal_dump_installed = false;
}

}  // namespace redist::obs
