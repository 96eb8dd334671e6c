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
#include "runtime/batch.hpp"
#include "kpbs/solver.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
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
  for (const Algorithm algo :
       {Algorithm::kGGP, Algorithm::kOGGP, Algorithm::kGGPMaxWeight}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const BipartiteGraph g = instance(seed);
      const Schedule plain = solve_kpbs(g, {5, 2, algo}).schedule;
      Schedule instrumented;
      {
        obs::MetricsRegistry registry;
        obs::TraceSession session;
        obs::ScopedTelemetry scoped(&registry, &session);
        instrumented = solve_kpbs(g, {5, 2, algo}).schedule;
      }
      expect_identical(plain, instrumented,
                       algorithm_name(algo) + " seed " + std::to_string(seed));
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
  EXPECT_GT(registry.counter("hk.phases").value(), 0u);
  // One peel run: the ledger is built once (miss) and reused every
  // subsequent step (hits).
  EXPECT_EQ(registry.counter("warm.ledger.misses").value(), 1u);
  EXPECT_EQ(registry.counter("warm.ledger.hits").value(),
            registry.counter("wrgp.steps").value() - 1);
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
  std::vector<KpbsRequest> requests;
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    KpbsRequest request;
    request.demand = instance(seed);
    request.options = SolverOptions{4, 1, Algorithm::kOGGP};
    requests.push_back(std::move(request));
  }
  std::vector<Schedule> plain;
  plain.reserve(requests.size());
  for (const KpbsRequest& r : requests) {
    plain.push_back(solve_kpbs(r.demand, r.options).schedule);
  }

  obs::MetricsRegistry registry;
  obs::TraceSession session;
  std::vector<SolveResult> instrumented;
  {
    obs::ScopedTelemetry scoped(&registry, &session);
    BatchOptions options;
    options.threads = 3;
    instrumented = solve_kpbs_batch(requests, options);
  }
  ASSERT_EQ(instrumented.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_identical(plain[i], instrumented[i].schedule,
                     "batch instance " + std::to_string(i));
    EXPECT_GE(instrumented[i].solve_ms, 0.0);
  }
  EXPECT_EQ(registry.counter("kpbs.batch.instances").value(),
            requests.size());
  EXPECT_EQ(registry.counter("kpbs.solve.count").value(), requests.size());
  EXPECT_EQ(registry.counter("runtime.pool.tasks").value(), requests.size());
}

}  // namespace
}  // namespace redist
