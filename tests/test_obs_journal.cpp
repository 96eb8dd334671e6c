#include "obs/journal.hpp"

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "kpbs/solver.hpp"
#include "obs/export.hpp"
#include "workload/random_graphs.hpp"

namespace redist::obs {
namespace {

BipartiteGraph small_instance(std::uint64_t seed) {
  Rng rng(seed);
  RandomGraphConfig config;
  config.max_left = 8;
  config.max_right = 8;
  config.max_edges = 24;
  config.min_weight = 1;
  config.max_weight = 9;
  return random_bipartite(rng, config);
}

// Injectable deterministic clock: 100ns per event.
std::function<std::uint64_t()> ticking_clock() {
  auto next = std::make_shared<std::uint64_t>(0);
  return [next] {
    const std::uint64_t now = *next;
    *next += 100;
    return now;
  };
}

TEST(ObsJournal, RecordsEventsInSequenceOrder) {
  Journal journal(64, ticking_clock());
  journal.record(JournalEventKind::kSolveBegin, 8, 12);
  journal.record(JournalEventKind::kPeelStep, 0, 4, 2.5);
  journal.record(JournalEventKind::kSolveEnd, 5, 40, 1.25);

  const std::vector<JournalEvent> events = journal.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].kind, JournalEventKind::kSolveBegin);
  EXPECT_EQ(events[0].a, 8);
  EXPECT_EQ(events[0].b, 12);
  EXPECT_EQ(events[0].ts_ns, 0u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[1].ts_ns, 100u);
  EXPECT_DOUBLE_EQ(events[1].v, 2.5);
  EXPECT_EQ(events[2].kind, JournalEventKind::kSolveEnd);
  EXPECT_EQ(journal.total_recorded(), 3u);
  EXPECT_EQ(journal.dropped(), 0u);
  EXPECT_EQ(journal.solves_begun(), 1u);
  EXPECT_EQ(journal.solves_finished(), 1u);
}

TEST(ObsJournal, KindNamesAreStable) {
  // Dumps carry these names, so the table is the wire schema: every kind,
  // in declaration order, and nothing past the last one.
  constexpr const char* kNames[] = {
      "solve_begin",   "solve_end",   "peel_step",        "pool_enqueue",
      "pool_start",    "pool_finish", "retry",            "fault_injected",
      "attempt_begin", "attempt_end", "recovery_spliced", "rpc_request",
      "cache_hit",     "cache_miss",  "cache_evict",      "regularized",
  };
  constexpr std::size_t kCount = sizeof(kNames) / sizeof(kNames[0]);
  static_assert(kCount == 16);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_STREQ(journal_event_kind_name(static_cast<JournalEventKind>(i)),
                 kNames[i])
        << "kind " << i;
  }
  EXPECT_EQ(static_cast<std::size_t>(JournalEventKind::kRegularized),
            kCount - 1);
  EXPECT_STREQ(
      journal_event_kind_name(static_cast<JournalEventKind>(kCount)),
      "unknown");
}

TEST(ObsJournal, RingWraparoundRetainsExactlyTheLastCapacityEvents) {
  constexpr std::size_t kCapacity = 64;
  Journal journal(kCapacity, ticking_clock());
  constexpr std::uint64_t kTotal = 1000;
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    journal.record(JournalEventKind::kPeelStep,
                   static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(journal.total_recorded(), kTotal);
  EXPECT_EQ(journal.dropped(), kTotal - kCapacity);

  const std::vector<JournalEvent> events = journal.snapshot();
  ASSERT_EQ(events.size(), kCapacity);
  // Exactly the last kCapacity sequence numbers, in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, kTotal - kCapacity + i);
    EXPECT_EQ(events[i].a, static_cast<std::int64_t>(events[i].seq));
  }
}

TEST(ObsJournal, SnapshotLastNReturnsTail) {
  Journal journal(64, ticking_clock());
  for (int i = 0; i < 20; ++i) {
    journal.record(JournalEventKind::kRetry, i);
  }
  const std::vector<JournalEvent> tail = journal.snapshot(5);
  ASSERT_EQ(tail.size(), 5u);
  EXPECT_EQ(tail.front().seq, 15u);
  EXPECT_EQ(tail.back().seq, 19u);
}

TEST(ObsJournal, CapacityRoundsToStripeMultiple) {
  Journal journal(13);  // rounds down to 8 (one slot per stripe)
  EXPECT_EQ(journal.capacity(), 8u);
  Journal tiny(0);  // clamps to one slot per stripe
  EXPECT_EQ(tiny.capacity(), 8u);
}

// Concurrent writers lose nothing while under capacity. Runs under TSan in
// CI (the striped-mutex scheme must be race-free).
TEST(ObsJournal, ConcurrentWritersAreExactUnderCapacity) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  Journal journal(kThreads * kPerThread);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&journal, t] {
      const SolveIdScope scope(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kPerThread; ++i) {
        journal.record(JournalEventKind::kPeelStep, i);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(journal.total_recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const std::vector<JournalEvent> events = journal.snapshot();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  std::set<std::uint64_t> seqs;
  for (const JournalEvent& e : events) {
    seqs.insert(e.seq);
    EXPECT_GE(e.solve_id, 1u);
    EXPECT_LE(e.solve_id, static_cast<std::uint64_t>(kThreads));
  }
  EXPECT_EQ(seqs.size(), events.size());  // every seq unique
  EXPECT_EQ(*seqs.begin(), 0u);
  EXPECT_EQ(*seqs.rbegin(), events.size() - 1);
}

TEST(ObsJournal, SolveIdScopeNestsAndRestores) {
  EXPECT_EQ(SolveIdScope::current(), 0u);
  {
    SolveIdScope outer(7);
    EXPECT_EQ(SolveIdScope::current(), 7u);
    {
      SolveIdScope inner(9);
      EXPECT_EQ(SolveIdScope::current(), 9u);
    }
    EXPECT_EQ(SolveIdScope::current(), 7u);
  }
  EXPECT_EQ(SolveIdScope::current(), 0u);
}

TEST(ObsJournal, AllocateSolveIdIsMonotonic) {
  const std::uint64_t first = allocate_solve_id();
  const std::uint64_t second = allocate_solve_id();
  EXPECT_GT(first, 0u);
  EXPECT_GT(second, first);
}

TEST(ObsJournal, JournalRecordGoesToTheInstalledJournal) {
  {
    Journal recorder(64);
    const ScopedTelemetry scoped(nullptr, &recorder);
    journal_record(JournalEventKind::kRetry, 1);
    EXPECT_EQ(recorder.total_recorded(), 1u);
  }
  EXPECT_EQ(journal(), nullptr);
  journal_record(JournalEventKind::kRetry, 2);  // null-safe no-op
}

TEST(ObsJournal, GoldenJsonlDump) {
  Journal journal(64, ticking_clock());
  {
    const SolveIdScope scope(3);
    journal.record(JournalEventKind::kSolveBegin, 4, 6);
    journal.record(JournalEventKind::kPeelStep, 0, 2, 1.5);
    journal.record(JournalEventKind::kSolveEnd, 2, 10, 1.0);
  }
  std::ostringstream os;
  write_journal_jsonl(os, journal);
  const std::string expected =
      "{\"schema\":\"redist.journal.v1\",\"capacity\":64,\"recorded\":3,"
      "\"dropped\":0,\"events\":3}\n"
      "{\"seq\":0,\"ts_ns\":0,\"solve\":3,\"kind\":\"solve_begin\",\"tid\":0,"
      "\"a\":4,\"b\":6,\"v\":0}\n"
      "{\"seq\":1,\"ts_ns\":100,\"solve\":3,\"kind\":\"peel_step\",\"tid\":0,"
      "\"a\":0,\"b\":2,\"v\":1.5}\n"
      "{\"seq\":2,\"ts_ns\":200,\"solve\":3,\"kind\":\"solve_end\",\"tid\":0,"
      "\"a\":2,\"b\":10,\"v\":1}\n";
  EXPECT_EQ(os.str(), expected);
}

// The Chrome trace rendered from the ring: the solve's begin/end pair folds
// into one span, regularization and each peel step span from the solve's
// previous phase event, and an event outside any solve is an instant.
TEST(ObsJournal, GoldenChromeTrace) {
  Journal journal(64, ticking_clock());
  {
    const SolveIdScope scope(3);
    journal.record(JournalEventKind::kSolveBegin, 4, 6);
    journal.record(JournalEventKind::kRegularized, 5, 1);
    journal.record(JournalEventKind::kPeelStep, 0, 2, 1.5);
    journal.record(JournalEventKind::kPeelStep, 1, 2, 3.5);
    journal.record(JournalEventKind::kSolveEnd, 2, 10, 1.25);
  }
  journal.record(JournalEventKind::kCacheHit, 2);
  std::ostringstream os;
  write_chrome_trace(os, journal);
  const std::string expected =
      "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n"
      "{\"name\": \"solve_kpbs\", \"cat\": \"kpbs\", \"ph\": \"X\", "
      "\"ts\": 0.000, \"dur\": 0.400, \"pid\": 1, \"tid\": 0, \"args\": "
      "{\"solve\": 3, \"nodes\": 4, \"edges\": 6, \"steps\": 2, \"cost\": 10, "
      "\"ratio\": 1.25}},\n"
      "{\"name\": \"regularize\", \"cat\": \"kpbs\", \"ph\": \"X\", "
      "\"ts\": 0.000, \"dur\": 0.100, \"pid\": 1, \"tid\": 0, \"args\": "
      "{\"solve\": 3, \"c\": 5, \"filler_edges\": 1}},\n"
      "{\"name\": \"wrgp.step\", \"cat\": \"kpbs\", \"ph\": \"X\", "
      "\"ts\": 0.100, \"dur\": 0.100, \"pid\": 1, \"tid\": 0, \"args\": "
      "{\"solve\": 3, \"step\": 0, \"matched_edges\": 2, \"amount\": 1.5}},\n"
      "{\"name\": \"wrgp.step\", \"cat\": \"kpbs\", \"ph\": \"X\", "
      "\"ts\": 0.200, \"dur\": 0.100, \"pid\": 1, \"tid\": 0, \"args\": "
      "{\"solve\": 3, \"step\": 1, \"matched_edges\": 2, \"amount\": 3.5}},\n"
      "{\"name\": \"cache_hit\", \"cat\": \"service\", \"ph\": \"X\", "
      "\"ts\": 0.500, \"dur\": 0.000, \"pid\": 1, \"tid\": 0, \"args\": "
      "{\"hits\": 2}}\n"
      "]\n}\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(ObsJournal, SolveSeamsRecordCausallyJoinableEvents) {
  Journal journal(4096);
  const ScopedTelemetry scoped(nullptr, &journal);
  const BipartiteGraph g = small_instance(7);
  const SolveResult result = solve_kpbs(g, SolverOptions{2, 1});
  ASSERT_GT(result.solve_id, 0u);

  bool saw_begin = false;
  bool saw_end = false;
  bool saw_peel = false;
  for (const JournalEvent& e : journal.snapshot()) {
    if (e.solve_id != result.solve_id) continue;
    saw_begin |= e.kind == JournalEventKind::kSolveBegin;
    saw_end |= e.kind == JournalEventKind::kSolveEnd;
    saw_peel |= e.kind == JournalEventKind::kPeelStep;
  }
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_end);
  EXPECT_TRUE(saw_peel);
  EXPECT_EQ(journal.solves_begun(), journal.solves_finished());
}

TEST(ObsJournal, ExplicitSolveIdIsHonored) {
  Journal journal(256);
  const ScopedTelemetry scoped(nullptr, &journal);
  const BipartiteGraph g = small_instance(9);
  SolverOptions options;
  options.solve_id = 424242;
  const SolveResult result = solve_kpbs(g, options);
  EXPECT_EQ(result.solve_id, 424242u);
  bool any = false;
  for (const JournalEvent& e : journal.snapshot()) {
    EXPECT_EQ(e.solve_id, 424242u);
    any = true;
  }
  EXPECT_TRUE(any);
}

#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define REDIST_SKIP_SIGNAL_DUMP_TEST 1
#endif
#endif

// Fork a child, crash it, and parse the journal dump its signal handler
// wrote. Skipped under sanitizers (fork + signal-kill interacts badly with
// their runtimes).
TEST(ObsJournal, SignalDumpSmoke) {
#ifdef REDIST_SKIP_SIGNAL_DUMP_TEST
  GTEST_SKIP() << "signal-dump smoke is not run under sanitizers";
#else
  const std::string path =
      ::testing::TempDir() + "/journal_signal_dump.jsonl";
  std::remove(path.c_str());

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: record a few events, arm the dump, die on SIGABRT.
    Journal journal(64, ticking_clock());
    journal.record(JournalEventKind::kSolveBegin, 1, 2);
    journal.record(JournalEventKind::kFaultInjected, 0, 1);
    install_signal_dump(&journal, path);
    std::abort();
  }

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  std::ifstream dump(path);
  ASSERT_TRUE(dump.good()) << "signal handler did not write " << path;
  std::string line;
  ASSERT_TRUE(std::getline(dump, line));
  EXPECT_NE(line.find("\"schema\":\"redist.journal.v1\""), std::string::npos);
  EXPECT_NE(line.find("\"crash\":true"), std::string::npos);
  std::size_t events = 0;
  std::size_t fault_lines = 0;
  while (std::getline(dump, line)) {
    if (line.empty()) continue;
    ++events;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"kind\":\"fault_injected\"") != std::string::npos) {
      ++fault_lines;
    }
  }
  EXPECT_EQ(events, 2u);
  EXPECT_EQ(fault_lines, 1u);
  std::remove(path.c_str());
#endif
}

}  // namespace
}  // namespace redist::obs
