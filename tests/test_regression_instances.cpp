// Adversarial instance families. The paper notes "a set of suboptimal
// examples reaching the approximation ratio of 2 may be found in [19]";
// these structured families pin down where each algorithm's ratio actually
// lands and act as a regression corpus (any solver change that worsens a
// ratio beyond the recorded ceiling fails here).
#include <gtest/gtest.h>

#include "kpbs/lower_bound.hpp"
#include "kpbs/regularize.hpp"
#include "kpbs/solver.hpp"
#include "oracle/bottleneck_oracle.hpp"

namespace redist {
namespace {

double ratio(const BipartiteGraph& g, int k, Weight beta, Algorithm algo) {
  const Schedule s = solve_kpbs(g, {k, beta, algo}).schedule;
  validate_schedule(g, s, clamp_k(g, k));
  return static_cast<double>(s.cost(beta)) /
         kpbs_lower_bound(g, k, beta).value_double();
}

// Family 1 — interlocked heavy/light cycle: weights alternate around an
// even cycle so arbitrary matchings mix heavy and light edges and fragment
// badly, while the bottleneck matching peels cleanly.
BipartiteGraph heavy_light_cycle(NodeId n, Weight heavy, Weight light) {
  BipartiteGraph g(n, n);
  for (NodeId i = 0; i < n; ++i) {
    g.add_edge(i, i, heavy);
    g.add_edge(i, (i + 1) % n, light);
  }
  return g;
}

TEST(Regression, HeavyLightCycleOggpIsNearOptimal) {
  const BipartiteGraph g = heavy_light_cycle(8, 50, 1);
  EXPECT_LT(ratio(g, 8, 1, Algorithm::kOGGP), 1.05);
  EXPECT_LT(ratio(g, 8, 1, Algorithm::kGGP), 2.0);
}

// Family 2 — beta-dominated unit star: every edge takes one unit and beta
// is huge; the step count is everything. Degree forces Delta steps; the
// solvers must not exceed that materially.
TEST(Regression, UnitStarWithHugeBeta) {
  BipartiteGraph g(1, 10);
  for (NodeId j = 0; j < 10; ++j) g.add_edge(0, j, 1);
  for (const auto& [name, s] : oracle::every_peeling(g, 10, 1000)) {
    validate_schedule(g, s, 1);
    EXPECT_EQ(s.step_count(), 10u) << name;
    EXPECT_LT(evaluation_ratio(g, s, 10, 1000), 1.01) << name;
  }
}

// Family 3 — k = 1 serialization: everything must go one at a time, so
// every algorithm should hit the lower bound exactly (cost = m*beta + P).
TEST(Regression, KOneIsAlwaysOptimal) {
  BipartiteGraph g(4, 4);
  g.add_edge(0, 1, 7);
  g.add_edge(1, 3, 2);
  g.add_edge(2, 0, 9);
  g.add_edge(3, 2, 4);
  g.add_edge(0, 2, 1);
  for (const auto& [name, s] : oracle::every_peeling(g, 1, 3)) {
    validate_schedule(g, s, 1);
    EXPECT_DOUBLE_EQ(evaluation_ratio(g, s, 1, 3), 1.0) << name;
  }
}

// Family 4 — near-worst case for peeling with beta ~ weights: a dense
// block of unit edges where the lower bound's step term is m/k but any
// uniform peeling pays Delta-ish steps. Records the observed ceilings.
TEST(Regression, DenseUnitBlockCeilings) {
  const NodeId n = 10;
  BipartiteGraph g(n, n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) g.add_edge(i, j, 1);
  }
  // With k = n the coloring-like structure gives exactly n steps = Delta,
  // matching the bound: ratio 1.
  EXPECT_DOUBLE_EQ(ratio(g, n, 1, Algorithm::kOGGP), 1.0);
  // With k = 3 the bound interleaves: steps >= ceil(100/3) = 34, and the
  // peeling achieves it up to regularization slack. Ceiling recorded at
  // 1.25 (measured ~1.15).
  EXPECT_LT(ratio(g, 3, 1, Algorithm::kOGGP), 1.25);
  EXPECT_LT(ratio(g, 3, 1, Algorithm::kGGP), 1.25);
}

// Family 5 — single giant edge among dust: preemption must not fragment
// the giant edge beyond reason when beta is significant.
TEST(Regression, GiantAmongDust) {
  BipartiteGraph g(5, 5);
  g.add_edge(0, 0, 1000);
  for (NodeId i = 1; i < 5; ++i) g.add_edge(i, i, 1);
  for (const Algorithm algo : {Algorithm::kGGP, Algorithm::kOGGP}) {
    const double r = ratio(g, 5, 10, algo);
    EXPECT_LT(r, 1.10) << algorithm_name(algo);
  }
}

// Family 6 — the ratio-2 pressure point from Figure 9's regime: beta equal
// to the weight scale, k unconstrained. The paper measured up to 1.8 (GGP)
// and 1.6 (OGGP); we pin slightly looser ceilings to stay robust across
// matching tie-breaks.
TEST(Regression, BetaEqualsWeightsPressure) {
  BipartiteGraph g(6, 6);
  // Two stacked permutations plus scattered extras.
  for (NodeId i = 0; i < 6; ++i) g.add_edge(i, i, 3);
  for (NodeId i = 0; i < 6; ++i) g.add_edge(i, (i + 1) % 6, 2);
  g.add_edge(0, 2, 1);
  g.add_edge(3, 5, 1);
  const double ggp = ratio(g, 6, 3, Algorithm::kGGP);
  const double oggp = ratio(g, 6, 3, Algorithm::kOGGP);
  EXPECT_LT(ggp, 2.0);
  EXPECT_LT(oggp, 1.7);
  EXPECT_LE(oggp, ggp + 1e-9);
}

// Family 7 — rectangular extremes: 1 x n and n x 1 graphs exercise the
// clamping and regularization corner cases.
TEST(Regression, RectangularExtremes) {
  for (const bool wide : {false, true}) {
    BipartiteGraph g(wide ? 1 : 12, wide ? 12 : 1);
    for (NodeId x = 0; x < 12; ++x) {
      if (wide) {
        g.add_edge(0, x, 1 + x % 4);
      } else {
        g.add_edge(x, 0, 1 + x % 4);
      }
    }
    for (const Algorithm algo : {Algorithm::kGGP, Algorithm::kOGGP}) {
      const double r = ratio(g, 40, 1, algo);
      EXPECT_DOUBLE_EQ(r, 1.0) << (wide ? "wide" : "tall") << " "
                               << algorithm_name(algo);
    }
  }
}

}  // namespace
}  // namespace redist
