// Fault-injection differential tests for the recovering socket_scheduled
// overload. Each fault class the injector models — refused connections,
// mid-transfer resets, stalls, short writes — is driven through a real
// loopback redistribution, and the run must still end verified with the
// exact byte total within the attempt budget. Injection decisions are
// deterministic per (seed, op index) but thread interleaving picks which
// transfer an op index lands on, so the assertions are recovery
// invariants, not "which transfer was hit" (see robust/fault_injector.hpp).
#include "mpilite/redistribute.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kpbs/solver.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "robust/fault_injector.hpp"
#include "workload/uniform_traffic.hpp"

namespace redist {
namespace {

SocketClusterConfig test_cluster() {
  SocketClusterConfig config;
  config.card_out_bps = 3e6;
  config.card_in_bps = 3e6;
  config.backbone_bps = 6e6;
  config.chunk_bytes = 4096;
  config.burst_bytes = 8192;
  return config;
}

struct Instance {
  TrafficMatrix traffic{1, 1};  // placeholder, overwritten below
  Schedule schedule;
  double bpu = 8000.0;
};

Instance test_instance(std::uint64_t seed) {
  Instance instance;
  Rng rng(seed);
  instance.traffic = uniform_all_pairs_traffic(rng, 3, 3, 5000, 20000);
  const BipartiteGraph g = instance.traffic.to_graph(instance.bpu);
  instance.schedule = solve_kpbs(g, {2, 1, Algorithm::kOGGP}).schedule;
  return instance;
}

/// Robustness options tuned for tests: short deadlines and millisecond
/// backoffs so a failed attempt unwinds quickly.
RobustnessOptions fast_robustness() {
  RobustnessOptions r;
  r.enabled = true;
  r.io_timeout_ms = 500;
  r.max_reschedules = 3;
  r.resolve = SolverOptions{2, 1, Algorithm::kOGGP};
  r.connect_retry.base_delay_ms = 1;
  r.connect_retry.max_delay_ms = 4;
  r.attempt_backoff.base_delay_ms = 1;
  r.attempt_backoff.max_delay_ms = 4;
  return r;
}

// One runner behind every overload: without faults, the plain 4-arg call
// (the historical "legacy" path) and a RobustnessOptions call each run a
// single clean attempt over the same steps.
void expect_one_clean_attempt(const Instance& in,
                              const RobustnessOptions& options) {
  const std::vector<SocketRunResult> runs = {
      socket_scheduled(test_cluster(), in.traffic, in.schedule, in.bpu),
      socket_scheduled(test_cluster(), in.traffic, in.schedule, in.bpu,
                       options)};
  for (const SocketRunResult& r : runs) {
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.bytes_delivered, in.traffic.total());
    EXPECT_EQ(r.steps, runs[0].steps);
    EXPECT_EQ(r.attempts, 1);
    EXPECT_EQ(r.reschedules, 0);
    EXPECT_EQ(r.link_retries, 0u);
  }
}

TEST(RobustDifferential, DisabledOptionsRunTheLegacyPath) {
  expect_one_clean_attempt(test_instance(72), RobustnessOptions{});
}

TEST(RobustDifferential, InjectionOffMatchesLegacyInOneAttempt) {
  expect_one_clean_attempt(test_instance(73), fast_robustness());
}

TEST(RobustDifferential, RecoversFromInjectedConnectRefusals) {
  const Instance in = test_instance(74);
  robust::FaultInjector injector(101);
  robust::FaultRule rule;
  rule.kind = robust::FaultKind::kConnectRefuse;
  rule.site = robust::FaultSite::kConnect;
  rule.count = 3;
  injector.add_rule(rule);
  const robust::ScopedFaultInjection scope(&injector);
  const SocketRunResult r = socket_scheduled(
      test_cluster(), in.traffic, in.schedule, in.bpu, fast_robustness());
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.bytes_delivered, in.traffic.total());
  // Refusals are absorbed by connect retries during wiring, not by a
  // whole-run reschedule.
  EXPECT_EQ(r.attempts, 1);
  EXPECT_GE(r.link_retries, 1u);
  EXPECT_EQ(injector.injected_count(), 3u);
}

TEST(RobustDifferential, RecoversFromMidTransferReset) {
  const Instance in = test_instance(75);
  robust::FaultInjector injector(202);
  robust::FaultRule rule;
  rule.kind = robust::FaultKind::kReset;
  rule.site = robust::FaultSite::kSend;
  rule.begin = 60;  // past the 15 wiring handshakes, into the data phase
  rule.at_bytes = 2000;
  injector.add_rule(rule);
  const robust::ScopedFaultInjection scope(&injector);
  const RobustnessOptions robustness = fast_robustness();
  const SocketRunResult r = socket_scheduled(test_cluster(), in.traffic,
                                             in.schedule, in.bpu, robustness);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.bytes_delivered, in.traffic.total());
  EXPECT_LE(r.attempts, 1 + robustness.max_reschedules);
  EXPECT_EQ(injector.injected_count(), 1u);
}

TEST(RobustDifferential, RecoversFromInjectedStall) {
  const Instance in = test_instance(76);
  robust::FaultInjector injector(303);
  robust::FaultRule rule;
  rule.kind = robust::FaultKind::kStall;
  rule.site = robust::FaultSite::kRecv;
  rule.begin = 60;
  rule.stall_ms = 1500;  // longer than the armed 500 ms idle deadline
  injector.add_rule(rule);
  const robust::ScopedFaultInjection scope(&injector);
  const RobustnessOptions robustness = fast_robustness();
  const SocketRunResult r = socket_scheduled(test_cluster(), in.traffic,
                                             in.schedule, in.bpu, robustness);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.bytes_delivered, in.traffic.total());
  EXPECT_LE(r.attempts, 1 + robustness.max_reschedules);
}

TEST(RobustDifferential, ShortWritesDeliverIntactInOneAttempt) {
  const Instance in = test_instance(77);
  robust::FaultInjector injector(404);
  robust::FaultRule rule;
  rule.kind = robust::FaultKind::kShortWrite;
  rule.site = robust::FaultSite::kSend;
  rule.count = 1u << 20;  // cap every send for the whole run
  rule.chunk_cap = 7;
  injector.add_rule(rule);
  const robust::ScopedFaultInjection scope(&injector);
  const SocketRunResult r = socket_scheduled(
      test_cluster(), in.traffic, in.schedule, in.bpu, fast_robustness());
  // Short writes exercise the send/recv loops but are not a failure: the
  // run must finish verified on the first attempt.
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.bytes_delivered, in.traffic.total());
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(r.reschedules, 0);
  EXPECT_GT(injector.injected_count(), 0u);
}

// The flight recorder joins the whole robust run on one solve ID: attempt
// seams, injected faults and (when an attempt fails) the spliced recovery
// all carry SocketRunResult::run_id, and a recovery leaves a forensic
// JSONL dump in RobustnessOptions::journal_dir.
TEST(RobustDifferential, JournalJoinsRobustRunBySolveIdAndDumpsRecovery) {
  const Instance in = test_instance(75);
  robust::FaultInjector injector(202);
  robust::FaultRule rule;
  rule.kind = robust::FaultKind::kReset;
  rule.site = robust::FaultSite::kSend;
  rule.begin = 60;
  rule.at_bytes = 2000;
  injector.add_rule(rule);
  const robust::ScopedFaultInjection scope(&injector);

  obs::Journal journal(8192);
  const obs::ScopedJournal scoped_journal(&journal);
  RobustnessOptions robustness = fast_robustness();
  robustness.journal_dir = ::testing::TempDir();
  const SocketRunResult r = socket_scheduled(test_cluster(), in.traffic,
                                             in.schedule, in.bpu, robustness);
  ASSERT_TRUE(r.verified);
  ASSERT_GT(r.run_id, 0u);

  int attempt_begins = 0;
  int attempt_ends = 0;
  int splices = 0;
  for (const obs::JournalEvent& e : journal.snapshot()) {
    if (e.solve_id != r.run_id) continue;
    if (e.kind == obs::JournalEventKind::kAttemptBegin) ++attempt_begins;
    if (e.kind == obs::JournalEventKind::kAttemptEnd) ++attempt_ends;
    if (e.kind == obs::JournalEventKind::kRecoverySpliced) ++splices;
  }
  EXPECT_EQ(attempt_begins, r.attempts);
  EXPECT_EQ(attempt_ends, r.attempts);
  EXPECT_EQ(splices, r.reschedules);

  if (r.reschedules > 0) {
    // Every spliced recovery leaves a forensic artifact.
    ASSERT_FALSE(r.journal_dump_path.empty());
    std::ifstream dump(r.journal_dump_path);
    ASSERT_TRUE(dump.good()) << r.journal_dump_path;
    std::string line;
    ASSERT_TRUE(std::getline(dump, line));
    EXPECT_NE(line.find("\"schema\":\"redist.journal.v1\""),
              std::string::npos);
    bool saw_splice = false;
    while (std::getline(dump, line)) {
      if (line.find("\"kind\":\"recovery_spliced\"") != std::string::npos) {
        saw_splice = true;
      }
    }
    EXPECT_TRUE(saw_splice);
  } else {
    EXPECT_TRUE(r.journal_dump_path.empty());
  }
}

TEST(RobustDifferential, RobustCountersReachTheMetricsRegistry) {
  const Instance in = test_instance(78);
  obs::MetricsRegistry registry;
  const obs::ScopedTelemetry scope(&registry, nullptr);
  const SocketRunResult r = socket_scheduled(
      test_cluster(), in.traffic, in.schedule, in.bpu, fast_robustness());
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(registry.counter("robust.run.count").value(), 1u);
  EXPECT_EQ(registry.counter("robust.run.attempts").value(), 1u);
  EXPECT_EQ(registry.counter("robust.run.delivered_bytes").value(),
            static_cast<std::uint64_t>(in.traffic.total()));
}

}  // namespace
}  // namespace redist
