#include "kpbs/wrgp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"
#include "kpbs/regularize.hpp"
#include "kpbs/schedule_io.hpp"
#include "kpbs/solver.hpp"
#include "matching/peeling_context.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "oracle/bottleneck_oracle.hpp"
#include "oracle/graph_validator.hpp"
#include "oracle/hungarian.hpp"
#include "oracle/weight_regular.hpp"
#include "workload/scenario.hpp"

namespace redist {
namespace {

TEST(Wrgp, RejectsUnequalSides) {
  BipartiteGraph g(1, 2);
  g.add_edge(0, 0, 1);
  EXPECT_THROW(wrgp_peel(g, oracle::arbitrary_perfect_matching), Error);
}

TEST(Wrgp, RejectsIrregularGraph) {
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 3);
  g.add_edge(1, 1, 4);
  EXPECT_THROW(wrgp_peel(g, oracle::arbitrary_perfect_matching), Error);
}

TEST(Wrgp, EmptyGraphPeelsToNothing) {
  BipartiteGraph g(0, 0);
  EXPECT_TRUE(wrgp_peel(g, oracle::arbitrary_perfect_matching).empty());
}

TEST(Wrgp, SinglePermutationPeelsInOneStep) {
  BipartiteGraph g(3, 3);
  g.add_edge(0, 1, 5);
  g.add_edge(1, 2, 5);
  g.add_edge(2, 0, 5);
  const auto steps = wrgp_peel(g, oracle::arbitrary_perfect_matching);
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0].amount, 5);
  EXPECT_EQ(steps[0].matching.size(), 3u);
  EXPECT_TRUE(g.empty());
}

TEST(Wrgp, PaperFigureFourShape) {
  // Two overlaid permutations with different weights peel in two steps of
  // the two permutation weights (order may vary by strategy).
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 3);
  g.add_edge(1, 1, 3);
  g.add_edge(0, 1, 7);
  g.add_edge(1, 0, 7);
  const auto steps = wrgp_peel(g, oracle::arbitrary_perfect_matching);
  ASSERT_EQ(steps.size(), 2u);
  Weight total = 0;
  for (const auto& s : steps) total += s.amount;
  EXPECT_EQ(total, 10);  // regular weight c = 10
  EXPECT_TRUE(g.empty());
}

TEST(Wrgp, PreemptionSplitsUnevenEdges) {
  // c = 8 everywhere but the edges within a perfect matching differ
  // (5 with 3's partner): the 5-edges must be preempted across steps.
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 5);
  g.add_edge(0, 1, 3);
  g.add_edge(1, 0, 3);
  g.add_edge(1, 1, 5);
  const auto steps = wrgp_peel(g, oracle::arbitrary_perfect_matching);
  EXPECT_TRUE(g.empty());
  Weight total = 0;
  for (const auto& s : steps) total += s.amount;
  EXPECT_EQ(total, 8);
  // The diagonal matching {5,5} and anti-diagonal {3,3} need two steps;
  // a mixed matching {5,3} forces a third. Either way 2 <= steps <= 3.
  EXPECT_GE(steps.size(), 2u);
  EXPECT_LE(steps.size(), 3u);
}

// Audits every residual WRGP is about to peel: peeling a uniform amount off
// a perfect matching keeps the graph weight-regular (the induction that
// keeps Hall's condition alive), and the regular weight drops by exactly
// the amount peeled. `*regular_weight` starts at the input's c and ends at
// 0 once the graph is peeled empty.
PeelObserver regularity_audit(Weight* regular_weight) {
  return [regular_weight](const BipartiteGraph& residual, const Matching&,
                          Weight amount) {
    const ValidationReport report =
        GraphValidator::validate_weight_regular(residual, *regular_weight);
    EXPECT_TRUE(report.ok()) << report.to_string();
    *regular_weight -= amount;
  };
}

class WrgpRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WrgpRandom, PeelsRegularGraphsCompletely) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const NodeId n = static_cast<NodeId>(rng.uniform_int(2, 12));
    const int layers = static_cast<int>(rng.uniform_int(1, 6));
    BipartiteGraph g = random_weight_regular(rng, n, layers, 1, 9);
    Weight c = 0;
    ASSERT_TRUE(g.is_weight_regular(&c));
    const EdgeId m_before = g.alive_edge_count();

    Weight residual = c;
    const auto steps = wrgp_peel(g, oracle::arbitrary_perfect_matching,
                                 regularity_audit(&residual));
    EXPECT_TRUE(g.empty());
    EXPECT_EQ(residual, 0);
    // Step amounts sum to the regular weight (each node busy every step).
    Weight total = 0;
    for (const auto& s : steps) {
      total += s.amount;
      EXPECT_GT(s.amount, 0);
      EXPECT_EQ(s.matching.size(), static_cast<std::size_t>(n));
    }
    EXPECT_EQ(total, c);
    // At most one step per edge (each step kills at least one edge).
    EXPECT_LE(steps.size(), static_cast<std::size_t>(m_before));
  }
}

TEST_P(WrgpRandom, BottleneckStrategyNeverMoreStepsOnPermutationStacks) {
  // On stacked permutations, bottleneck matching recovers the layer
  // structure; arbitrary matchings may need more steps.
  Rng rng(GetParam() ^ 0xABCD);
  for (int trial = 0; trial < 5; ++trial) {
    const NodeId n = static_cast<NodeId>(rng.uniform_int(3, 10));
    BipartiteGraph g1 = random_weight_regular(rng, n, 3, 1, 20);
    BipartiteGraph g2 = g1;  // deep copy
    Weight c = 0;
    ASSERT_TRUE(g1.is_weight_regular(&c));
    Weight residual1 = c;
    Weight residual2 = c;
    const auto arbitrary = wrgp_peel(g1, oracle::arbitrary_perfect_matching,
                                     regularity_audit(&residual1));
    const auto bottleneck = wrgp_peel(g2, oracle::bottleneck_perfect_matching,
                                      regularity_audit(&residual2));
    EXPECT_EQ(residual1, 0);
    EXPECT_EQ(residual2, 0);
    Weight ta = 0;
    Weight tb = 0;
    for (const auto& s : arbitrary) ta += s.amount;
    for (const auto& s : bottleneck) tb += s.amount;
    EXPECT_EQ(ta, tb);  // both must sum to c
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WrgpRandom, ::testing::Values(3, 5, 8, 13));

TEST(Wrgp, AllThreeStrategiesPeelTheSameRegularGraph) {
  Rng rng(77);
  const BipartiteGraph base = random_weight_regular(rng, 8, 4, 1, 12);
  Weight c = 0;
  ASSERT_TRUE(base.is_weight_regular(&c));
  for (const PerfectMatchingStrategy& strategy :
       {PerfectMatchingStrategy(oracle::arbitrary_perfect_matching),
        PerfectMatchingStrategy(oracle::bottleneck_perfect_matching),
        PerfectMatchingStrategy(max_weight_perfect_matching)}) {
    BipartiteGraph g = base;
    const auto steps = wrgp_peel(g, strategy);
    EXPECT_TRUE(g.empty());
    Weight total = 0;
    for (const auto& s : steps) total += s.amount;
    EXPECT_EQ(total, c);  // transmission is strategy-independent
  }
}

// Peeling only lowers weights, so a step's bottleneck never exceeds the
// previous one, and the warm search caps itself there: on a sparse_giant
// instance most steps settle with the single probe at the cap.
TEST(PeelingContext, SearchIsBoundedByPreviousBottleneck) {
  const std::vector<ScenarioSpec> specs = builtin_scenarios(1.0 / 32);
  const auto spec = std::find_if(
      specs.begin(), specs.end(),
      [](const ScenarioSpec& s) { return s.name == "sparse_giant"; });
  ASSERT_NE(spec, specs.end());
  Regularized reg = regularize(materialize_scenario(*spec).demand, spec->k);

  obs::MetricsRegistry registry;
  std::vector<PeelStep> steps;
  {
    const obs::ScopedTelemetry scope(&registry, nullptr);
    steps = oracle::per_step_peel(reg.graph, Algorithm::kOGGP);
  }
  ASSERT_FALSE(steps.empty());
  const std::uint64_t peel_steps = registry.counter("wrgp.steps").value();
  const std::uint64_t probes = registry.counter("bottleneck.probes").value();
  ASSERT_EQ(peel_steps, steps.size());
  EXPECT_LE(static_cast<double>(probes) / static_cast<double>(peel_steps),
            2.0)
      << probes << " probes over " << peel_steps << " steps";
  for (std::size_t s = 1; s < steps.size(); ++s) {
    EXPECT_LE(steps[s].amount, steps[s - 1].amount) << "step " << s;
  }
}

// OGGP repairs the previous step's matching instead of matching from
// scratch, so a step's work follows the edges that died: after the first
// step, a feasible cap probe is the step and needs only the augmenting
// paths that rematch the dead edges' endpoints. On this instance (242
// nodes per side, 32 steps) the peel takes 26.5 augmenting paths per step;
// the bound of 28 sits well under the 39.0 that a cold greedy-seeded run
// at every probe and replay needs. Every step must still be
// bottleneck-optimal (oracle::solve audits each one).
TEST(PeelingContext, FeasibleCapProbeIsTheStep) {
  const std::vector<ScenarioSpec> specs = builtin_scenarios(1.0 / 32);
  const auto spec = std::find_if(
      specs.begin(), specs.end(),
      [](const ScenarioSpec& s) { return s.name == "sparse_giant"; });
  ASSERT_NE(spec, specs.end());
  const BipartiteGraph demand = materialize_scenario(*spec).demand;

  obs::MetricsRegistry registry;
  Schedule schedule;
  {
    const obs::ScopedTelemetry scope(&registry, nullptr);
    schedule =
        solve_kpbs(demand, {spec->k, spec->beta, Algorithm::kOGGP}).schedule;
  }
  const std::uint64_t peel_steps = registry.counter("wrgp.steps").value();
  const std::uint64_t paths =
      registry.counter("hk.augmenting_paths").value();
  ASSERT_GT(peel_steps, 0u);
  EXPECT_LE(static_cast<double>(paths) / static_cast<double>(peel_steps),
            28.0)
      << paths << " augmenting paths over " << peel_steps << " steps";
  EXPECT_EQ(schedule_to_string(schedule),
            schedule_to_string(
                oracle::solve(demand, spec->k, spec->beta, Algorithm::kOGGP)));
}

// OGGP runs exactly one threshold probe per step, at the cap; a failed cap
// probe is finished by widest augmenting paths and one repair, not by
// further probes. A dense daemon_mix-shape instance (48x48, 1200 pairs,
// bytes U[1, 1000], k = 8) has many distinct weights, so its cap probes do
// fail. oracle::solve audits every step against the optimal bottleneck.
TEST(PeelingContext, OneThresholdProbePerStep) {
  constexpr NodeId kNodes = 48;
  Rng rng(2024);
  std::vector<std::int64_t> pairs(static_cast<std::size_t>(kNodes * kNodes));
  std::iota(pairs.begin(), pairs.end(), 0);
  std::shuffle(pairs.begin(), pairs.end(), rng);
  BipartiteGraph demand(kNodes, kNodes);
  for (std::size_t i = 0; i < 1200; ++i) {
    demand.add_edge(static_cast<NodeId>(pairs[i] / kNodes),
                    static_cast<NodeId>(pairs[i] % kNodes),
                    rng.uniform_int(1, 1000));
  }

  obs::MetricsRegistry registry;
  Schedule schedule;
  {
    const obs::ScopedTelemetry scope(&registry, nullptr);
    schedule = solve_kpbs(demand, {8, 1, Algorithm::kOGGP}).schedule;
  }
  const std::uint64_t peel_steps = registry.counter("wrgp.steps").value();
  ASSERT_GT(peel_steps, 0u);
  EXPECT_EQ(registry.counter("bottleneck.probes").value(), peel_steps);
  EXPECT_GT(registry.counter("bottleneck.widest_paths").value(), 0u);
  EXPECT_EQ(schedule_to_string(schedule),
            schedule_to_string(oracle::solve(demand, 8, 1, Algorithm::kOGGP)));
}

// One context, rebound for every peel, each peel counting under a fresh
// MetricsRegistry on the stack, usually at the previous one's address. The
// counts must land in the registry installed for that peel; a handle kept
// from an earlier registry writes into freed memory (ASan reports it).
TEST(PeelingContext, CountsIntoEachPeelsRegistry) {
  Rng rng(31);
  std::vector<BipartiteGraph> graphs;
  for (int i = 0; i < 4; ++i) {
    const auto n = static_cast<NodeId>(rng.uniform_int(4, 12));
    BipartiteGraph demand(n, n);
    for (int e = 0; e < 3 * n; ++e) {
      demand.add_edge(static_cast<NodeId>(rng.uniform_int(0, n - 1)),
                      static_cast<NodeId>(rng.uniform_int(0, n - 1)),
                      rng.uniform_int(1, 50));
    }
    graphs.push_back(regularize(demand, 3).graph);
  }
  PeelingContext ctx;
  for (BipartiteGraph& j : graphs) {
    obs::MetricsRegistry registry;
    const obs::ScopedTelemetry scope(&registry, nullptr);
    ctx.start(j, true, j.left_count(), j.right_count());
    std::uint64_t steps = 0;
    for (; ctx.peeling(); ++steps) ctx.step();
    ASSERT_GT(steps, 0u);
    EXPECT_EQ(registry.counter("bottleneck.probes").value(), steps);
    EXPECT_GE(registry.counter("hk.phases").value(), steps);
  }
}

}  // namespace
}  // namespace redist
