// Telemetry must be observation-only: installing a metrics registry and a
// trace session cannot change a single byte of any schedule, for any
// algorithm. This pins the "differential" half of
// the observability contract (docs/OBSERVABILITY.md); the exporters are
// covered by test_obs_metrics / test_obs_trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kpbs/solver.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "oracle/bottleneck_oracle.hpp"
#include "runtime/thread_pool.hpp"
#include "workload/random_graphs.hpp"

namespace redist {
namespace {

BipartiteGraph instance(std::uint64_t seed) {
  Rng rng(seed);
  RandomGraphConfig config;
  config.max_left = 14;
  config.max_right = 14;
  config.max_edges = 80;
  config.min_weight = 1;
  config.max_weight = 30;
  return random_bipartite(rng, config);
}

void expect_identical(const Schedule& a, const Schedule& b,
                      const std::string& label) {
  ASSERT_EQ(a.step_count(), b.step_count()) << label;
  for (std::size_t s = 0; s < a.step_count(); ++s) {
    const Step& sa = a.steps()[s];
    const Step& sb = b.steps()[s];
    ASSERT_EQ(sa.comms.size(), sb.comms.size()) << label << " step " << s;
    for (std::size_t c = 0; c < sa.comms.size(); ++c) {
      EXPECT_EQ(sa.comms[c].sender, sb.comms[c].sender) << label;
      EXPECT_EQ(sa.comms[c].receiver, sb.comms[c].receiver) << label;
      EXPECT_EQ(sa.comms[c].amount, sb.comms[c].amount) << label;
    }
  }
}

TEST(TelemetryDifferential, MetricsAndTracingDoNotChangeSchedules) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const BipartiteGraph g = instance(seed);
    const auto plain = oracle::every_peeling(g, 5, 2);
    std::vector<oracle::NamedSchedule> instrumented;
    {
      obs::MetricsRegistry registry;
      obs::TraceSession session;
      obs::ScopedTelemetry scoped(&registry, &session);
      instrumented = oracle::every_peeling(g, 5, 2);
    }
    for (std::size_t i = 0; i < plain.size(); ++i) {
      expect_identical(plain[i].schedule, instrumented[i].schedule,
                       plain[i].name + " seed " + std::to_string(seed));
    }
  }
}

TEST(TelemetryDifferential, WarmOggpRecordsExpectedInstruments) {
  const BipartiteGraph g = instance(7);
  obs::MetricsRegistry registry;
  obs::TraceSession session;
  {
    obs::ScopedTelemetry scoped(&registry, &session);
    solve_kpbs(g, {5, 1, Algorithm::kOGGP}).schedule;
  }
  EXPECT_EQ(registry.counter("kpbs.solve.count").value(), 1u);
  EXPECT_EQ(registry.counter("regularize.calls").value(), 1u);
  EXPECT_GT(registry.counter("wrgp.steps").value(), 0u);
  EXPECT_GT(registry.counter("bottleneck.probes").value(), 0u);
  // The first probe is a cold Hopcroft–Karp run of at least one phase;
  // every later probe is a repair, counted as one phase, so there are at
  // least as many phases as steps.
  EXPECT_GE(registry.counter("hk.phases").value(),
            registry.counter("wrgp.steps").value());
  EXPECT_GT(registry.counter("hk.augmenting_paths").value(), 0u);
  // One cap probe per step; the widest-path count is exported even when a
  // solve needs none.
  EXPECT_EQ(registry.counter("bottleneck.probes").value(),
            registry.counter("wrgp.steps").value());
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_NE(std::find_if(snapshot.counters.begin(), snapshot.counters.end(),
                         [](const auto& counter) {
                           return counter.first == "bottleneck.widest_paths";
                         }),
            snapshot.counters.end());
  EXPECT_GT(session.event_count(), 0u);

  // The trace contains the span vocabulary the docs promise.
  std::vector<std::string> names;
  for (const obs::TraceEvent& e : session.snapshot()) names.push_back(e.name);
  for (const char* required :
       {"solve_kpbs", "regularize", "wrgp_peel", "wrgp.step",
        "bottleneck.search.warm", "bottleneck.probe", "bottleneck.replay",
        "hk.phase", "extract"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << "missing span " << required;
  }
}

TEST(TelemetryDifferential, BatchWithTelemetryMatchesSequentialPlain) {
  // A batch of solves fanned out on a ThreadPool, the way the daemon runs
  // them, under one telemetry scope.
  const SolverOptions options{4, 1, Algorithm::kOGGP};
  std::vector<BipartiteGraph> demands;
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    demands.push_back(instance(seed));
  }
  std::vector<Schedule> plain;
  plain.reserve(demands.size());
  for (const BipartiteGraph& g : demands) {
    plain.push_back(solve_kpbs(g, options).schedule);
  }

  obs::MetricsRegistry registry;
  obs::TraceSession session;
  std::vector<SolveResult> instrumented(demands.size());
  {
    obs::ScopedTelemetry scoped(&registry, &session);
    ThreadPool pool(3);
    for (std::size_t i = 0; i < demands.size(); ++i) {
      pool.submit(
          [&, i] { instrumented[i] = solve_kpbs(demands[i], options); });
    }
    pool.wait_idle();
  }
  for (std::size_t i = 0; i < demands.size(); ++i) {
    expect_identical(plain[i], instrumented[i].schedule,
                     "pooled instance " + std::to_string(i));
    EXPECT_GE(instrumented[i].solve_ms, 0.0);
  }
  EXPECT_EQ(registry.counter("kpbs.solve.count").value(), demands.size());
  EXPECT_EQ(registry.counter("runtime.pool.tasks").value(), demands.size());
}

}  // namespace
}  // namespace redist
