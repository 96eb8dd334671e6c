#include "kpbs/solver.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>
#include <utility>

#include "kpbs/lower_bound.hpp"

namespace redist {
namespace {

TEST(Solver, AlgorithmNames) {
  EXPECT_EQ(algorithm_name(Algorithm::kGGP), "GGP");
  EXPECT_EQ(algorithm_name(Algorithm::kOGGP), "OGGP");
}

TEST(Solver, EmptyDemandGivesEmptySchedule) {
  BipartiteGraph g(3, 3);
  const Schedule s = solve_kpbs(g, {2, 1, Algorithm::kGGP}).schedule;
  EXPECT_EQ(s.step_count(), 0u);
  EXPECT_EQ(s.cost(1), 0);
}

// A demand within beta of INT64_MAX: the realized amount must come out
// without multiplying the step's units by beta, which would overflow. The
// only failure left is the lower bound's own overflow check.
TEST(Solver, RealizedAmountDoesNotOverflowNearInt64Max) {
  BipartiteGraph g(1, 1);
  g.add_edge(0, 0, std::numeric_limits<Weight>::max() - 1);
  for (const Algorithm algo : {Algorithm::kGGP, Algorithm::kOGGP}) {
    try {
      solve_kpbs(g, {1, 1000, algo});
      ADD_FAILURE() << "the lower bound does not fit in 64 bits";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("rational overflow"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Solver, SingleEdgeSingleStep) {
  // The second weight puts the lower bound above INT64_MAX / 2, where
  // doubling it would overflow; the certificate inside solve_kpbs must not.
  for (const Weight w :
       {Weight{42}, std::numeric_limits<Weight>::max() / 2 + 3}) {
    BipartiteGraph g(1, 1);
    g.add_edge(0, 0, w);
    for (const Algorithm algo : {Algorithm::kGGP, Algorithm::kOGGP}) {
      const SolveResult r = solve_kpbs(g, {1, 1, algo});
      validate_schedule(g, r.schedule, 1);
      EXPECT_EQ(r.schedule.step_count(), 1u);
      EXPECT_EQ(r.schedule.total_transmission(), w);
      EXPECT_EQ(r.lower_bound.value(), Rational(w + 1));
    }
  }
}

TEST(Solver, DisjointPairsRunInParallelWhenKAllows) {
  BipartiteGraph g(3, 3);
  g.add_edge(0, 0, 10);
  g.add_edge(1, 1, 10);
  g.add_edge(2, 2, 10);
  const Schedule s = solve_kpbs(g, {3, 1, Algorithm::kOGGP}).schedule;
  validate_schedule(g, s, 3);
  EXPECT_EQ(s.step_count(), 1u);
  EXPECT_EQ(s.steps()[0].size(), 3u);
}

TEST(Solver, KOneSerializesEverything) {
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 4);
  g.add_edge(1, 1, 6);
  const Schedule s = solve_kpbs(g, {1, 0, Algorithm::kGGP}).schedule;
  validate_schedule(g, s, 1);
  // With k = 1 every step carries one communication; total transmission is
  // the full P(G).
  EXPECT_EQ(s.total_transmission(), 10);
  for (const Step& step : s.steps()) EXPECT_EQ(step.comms.size(), 1u);
}

TEST(Solver, KIsClampedToMinSide) {
  BipartiteGraph g(2, 5);
  for (NodeId j = 0; j < 5; ++j) g.add_edge(0, j, 2);
  const Schedule s = solve_kpbs(g, {100, 1, Algorithm::kGGP}).schedule;
  validate_schedule(g, s, 2);  // 1-port caps parallelism at min side anyway
}

TEST(Solver, BetaZeroAccepted) {
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 3);
  g.add_edge(0, 1, 2);
  g.add_edge(1, 1, 3);
  const Schedule s = solve_kpbs(g, {2, 0, Algorithm::kOGGP}).schedule;
  validate_schedule(g, s, 2);
  EXPECT_EQ(s.cost(0), s.total_transmission());
}

TEST(Solver, NegativeBetaRejected) {
  BipartiteGraph g(1, 1);
  g.add_edge(0, 0, 1);
  EXPECT_THROW(solve_kpbs(g, {1, -1, Algorithm::kGGP}).schedule, Error);
}

TEST(Solver, LargeBetaAvoidsPreemptingShortMessages) {
  // beta = 10 > every weight: normalization rounds all weights to one
  // beta-unit, so no communication is ever split.
  BipartiteGraph g(3, 3);
  g.add_edge(0, 0, 4);
  g.add_edge(0, 1, 7);
  g.add_edge(1, 1, 2);
  g.add_edge(2, 2, 9);
  const Schedule s = solve_kpbs(g, {3, 10, Algorithm::kOGGP}).schedule;
  validate_schedule(g, s, 3);
  // Count fragments per pair: none may exceed 1.
  std::map<std::pair<NodeId, NodeId>, int> fragments;
  for (const Step& step : s.steps()) {
    for (const Communication& c : step.comms) {
      fragments[{c.sender, c.receiver}] += 1;
    }
  }
  for (const auto& [pair, n] : fragments) EXPECT_EQ(n, 1);
}

TEST(Solver, RealizedAmountsNeverExceedDemand) {
  // Weight 7 with beta 3 normalizes to 3 units = 9 > 7; the realized
  // schedule must still transfer exactly 7.
  BipartiteGraph g(1, 1);
  g.add_edge(0, 0, 7);
  const Schedule s = solve_kpbs(g, {1, 3, Algorithm::kGGP}).schedule;
  validate_schedule(g, s, 1);
  EXPECT_EQ(s.total_amount(), 7);
}

TEST(Solver, EvaluationRatioAtLeastOne) {
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 5);
  g.add_edge(0, 1, 3);
  g.add_edge(1, 0, 2);
  const Schedule s = solve_kpbs(g, {2, 1, Algorithm::kOGGP}).schedule;
  EXPECT_GE(evaluation_ratio(g, s, 2, 1), 1.0);
}

TEST(Solver, PerfectInstanceReachesRatioOne) {
  // A single permutation: one step, duration = weight; LB equals it.
  BipartiteGraph g(3, 3);
  g.add_edge(0, 0, 5);
  g.add_edge(1, 1, 5);
  g.add_edge(2, 2, 5);
  const Schedule s = solve_kpbs(g, {3, 1, Algorithm::kOGGP}).schedule;
  EXPECT_DOUBLE_EQ(evaluation_ratio(g, s, 3, 1), 1.0);
}

TEST(Solver, OggpNeverWorseStepsOnLayeredInstance) {
  // Stacked permutations with distinct weights: OGGP recovers the layers.
  BipartiteGraph g(4, 4);
  const NodeId perm1[] = {0, 1, 2, 3};
  const NodeId perm2[] = {1, 2, 3, 0};
  for (NodeId i = 0; i < 4; ++i) g.add_edge(i, perm1[i], 10);
  for (NodeId i = 0; i < 4; ++i) g.add_edge(i, perm2[i], 3);
  const Schedule ggp = solve_kpbs(g, {4, 1, Algorithm::kGGP}).schedule;
  const Schedule oggp = solve_kpbs(g, {4, 1, Algorithm::kOGGP}).schedule;
  validate_schedule(g, ggp, 4);
  validate_schedule(g, oggp, 4);
  EXPECT_EQ(oggp.step_count(), 2u);
  EXPECT_LE(oggp.cost(1), ggp.cost(1));
}

TEST(Solver, ParallelEdgesInDemandAreScheduled) {
  BipartiteGraph g(1, 1);
  g.add_edge(0, 0, 2);
  g.add_edge(0, 0, 3);
  const Schedule s = solve_kpbs(g, {1, 1, Algorithm::kGGP}).schedule;
  validate_schedule(g, s, 1);
  EXPECT_EQ(s.total_amount(), 5);
}

}  // namespace
}  // namespace redist
