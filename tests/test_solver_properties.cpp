// Property tests for the GGP/OGGP solvers over random instances: schedule
// feasibility, the 2-approximation guarantee against the lower bound, and
// structural invariants of the peeling pipeline.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "kpbs/lower_bound.hpp"
#include "kpbs/regularize.hpp"
#include "kpbs/solver.hpp"
#include "oracle/bottleneck_oracle.hpp"
#include "oracle/graph_validator.hpp"
#include "workload/random_graphs.hpp"
#include "workload/scenario.hpp"

namespace redist {
namespace {

struct PropertyCase {
  std::uint64_t seed;
  Weight beta;
  Weight max_weight;
};

// regularize()'s contract on the beta-normalized graph solve_kpbs builds
// from `demand`: the input's cached aggregates match a recount from its
// edges, and the output is c-weight-regular with equal sides, weight c*k
// and a faithful origin map.
void expect_regularize_contract(const BipartiteGraph& demand, int k,
                                Weight beta) {
  const ValidationReport input = GraphValidator::validate(demand);
  EXPECT_TRUE(input.ok()) << input.to_string();
  const Weight unit = std::max<Weight>(1, beta);
  BipartiteGraph normalized(demand.left_count(), demand.right_count());
  for (const Edge& edge : demand.edges()) {
    if (edge.weight > 0) {
      normalized.add_edge(edge.left, edge.right, ceil_div(edge.weight, unit));
    }
  }
  if (normalized.empty()) return;
  const ValidationReport recount = GraphValidator::validate(normalized);
  EXPECT_TRUE(recount.ok()) << recount.to_string();
  const ValidationReport contract =
      GraphValidator::validate_regularized(normalized,
                                           regularize(normalized, k));
  EXPECT_TRUE(contract.ok()) << contract.to_string();
}

class SolverProperties : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(SolverProperties, SchedulesAreFeasibleAndWithinTwiceTheLowerBound) {
  const PropertyCase param = GetParam();
  Rng rng(param.seed);
  for (int trial = 0; trial < 25; ++trial) {
    RandomGraphConfig config;
    config.max_left = 12;
    config.max_right = 12;
    config.max_edges = 40;
    config.max_weight = param.max_weight;
    const BipartiteGraph g = random_bipartite(rng, config);
    const int k = static_cast<int>(rng.uniform_int(1, 14));
    const LowerBound lb = kpbs_lower_bound(g, k, param.beta);
    expect_regularize_contract(g, k, param.beta);

    for (const auto& [name, s] : oracle::every_peeling(g, k, param.beta)) {
      ASSERT_NO_THROW(validate_schedule(g, s, clamp_k(g, k)))
          << name << " seed=" << param.seed << " trial=" << trial
          << " k=" << k;
      // 2-approximation guarantee (LB <= OPT, so cost <= 2*LB suffices).
      const Rational cost(s.cost(param.beta));
      ASSERT_LE(cost, Rational(2) * lb.value())
          << name << " cost " << s.cost(param.beta)
          << " vs 2*LB " << (Rational(2) * lb.value()).to_double()
          << " seed=" << param.seed << " trial=" << trial << " k=" << k;
      // Cost is at least the lower bound (sanity of the bound itself).
      ASSERT_GE(cost, lb.value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SolverProperties,
    ::testing::Values(PropertyCase{101, 1, 20}, PropertyCase{102, 1, 10000},
                      PropertyCase{103, 0, 20}, PropertyCase{104, 5, 20},
                      PropertyCase{105, 40, 20}, PropertyCase{106, 1, 1},
                      PropertyCase{107, 7, 10000}, PropertyCase{108, 2, 3}));

class SolverKSweep : public ::testing::TestWithParam<int> {};

TEST_P(SolverKSweep, WidthNeverExceedsK) {
  const int k = GetParam();
  Rng rng(2000 + static_cast<std::uint64_t>(k));
  for (int trial = 0; trial < 10; ++trial) {
    RandomGraphConfig config;
    config.max_left = 10;
    config.max_right = 10;
    config.max_edges = 30;
    const BipartiteGraph g = random_bipartite(rng, config);
    for (const auto& [name, s] : oracle::every_peeling(g, k, 1)) {
      // The validator rejects a step wider than k.
      ASSERT_NO_THROW(validate_schedule(g, s, clamp_k(g, k))) << name;
      ASSERT_EQ(s.total_amount(), g.total_weight());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(K, SolverKSweep, ::testing::Values(1, 2, 3, 5, 8, 40));

TEST(SolverProperties, OggpStepsTendSmaller) {
  // Aggregate over many random instances: OGGP should need at most as many
  // steps as GGP on average (the paper reports ~50% fewer in its setup).
  Rng rng(31337);
  double ggp_steps = 0;
  double oggp_steps = 0;
  const int trials = 60;
  for (int trial = 0; trial < trials; ++trial) {
    RandomGraphConfig config;
    config.max_left = 10;
    config.max_right = 10;
    config.max_edges = 40;
    const BipartiteGraph g = random_bipartite(rng, config);
    const int k = static_cast<int>(rng.uniform_int(1, 10));
    ggp_steps += static_cast<double>(
        solve_kpbs(g, {k, 1, Algorithm::kGGP}).schedule.step_count());
    oggp_steps += static_cast<double>(
        solve_kpbs(g, {k, 1, Algorithm::kOGGP}).schedule.step_count());
  }
  EXPECT_LE(oggp_steps, ggp_steps * 1.02);
}

TEST(SolverProperties, StepCountWithinPeelingBound) {
  // Section 4.1: every WRGP peel kills at least one edge of the regularized
  // graph J, so the emitted schedule can never contain more steps than J
  // has alive edges (extraction only ever *drops* all-synthetic steps).
  // And since every step costs at least beta, steps * beta <= cost <= 2*LB.
  Rng rng(60601);
  for (int trial = 0; trial < 40; ++trial) {
    RandomGraphConfig config;
    config.max_left = 10;
    config.max_right = 10;
    config.max_edges = 40;
    config.max_weight = (trial % 2 == 0) ? 20 : 2000;
    const BipartiteGraph g = random_bipartite(rng, config);
    const int k = static_cast<int>(rng.uniform_int(1, 12));
    const Weight beta = rng.uniform_int(0, 4);

    // Replicate the solver's normalization + regularization to measure the
    // peeling bound it faces.
    const Weight unit = std::max<Weight>(1, beta);
    BipartiteGraph normalized(g.left_count(), g.right_count());
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      if (!g.alive(e)) continue;
      const Edge& edge = g.edge(e);
      normalized.add_edge(edge.left, edge.right,
                          ceil_div(edge.weight, unit));
    }
    const Regularized reg = regularize(normalized, k);
    const std::size_t bound = reg.graph.alive_edge_count();

    for (const Algorithm algo : {Algorithm::kGGP, Algorithm::kOGGP}) {
      const Schedule s = solve_kpbs(g, {k, beta, algo}).schedule;
      ASSERT_LE(s.step_count(), bound)
          << algorithm_name(algo) << " trial=" << trial << " k=" << k
          << " beta=" << beta;
      if (beta > 0) {
        const LowerBound lb = kpbs_lower_bound(g, k, beta);
        ASSERT_LE(Rational(static_cast<Weight>(s.step_count()) * beta),
                  Rational(2) * lb.value())
            << algorithm_name(algo) << " trial=" << trial;
      }
    }
  }
}

// The paper's bounds hold per instance, not per distribution — so every
// adversarial family in the scenario matrix must satisfy them too. Sizes are scaled down hard; the full-size instances run
// in tools/redist_sweep.
class ScenarioFamilyProperties
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ScenarioFamilyProperties, TwoApproximationHoldsAcrossTheFamily) {
  ScenarioSpec spec;
  for (const ScenarioSpec& builtin : builtin_scenarios(0.05)) {
    if (builtin.name == GetParam()) spec = builtin;
  }
  ASSERT_EQ(spec.name, GetParam());
  for (int trial = 0; trial < 4; ++trial) {
    spec.seed = 0xFA2 + static_cast<std::uint64_t>(trial) * 6151;
    const ScenarioWorkload w = materialize_scenario(spec);
    if (w.demand.alive_edge_count() == 0) continue;
    const LowerBound lb = kpbs_lower_bound(w.demand, spec.k, spec.beta);
    expect_regularize_contract(w.demand, spec.k, spec.beta);
    for (const Algorithm algo : {Algorithm::kGGP, Algorithm::kOGGP}) {
      const Schedule s =
          solve_kpbs(w.demand, {spec.k, spec.beta, algo}).schedule;
      ASSERT_NO_THROW(
          validate_schedule(w.demand, s, clamp_k(w.demand, spec.k)))
          << spec.name << "/" << algorithm_name(algo) << " trial=" << trial;
      const Rational cost(s.cost(spec.beta));
      ASSERT_LE(cost, Rational(2) * lb.value())
          << spec.name << "/" << algorithm_name(algo)
          << " cost=" << s.cost(spec.beta) << " trial=" << trial;
      ASSERT_GE(cost, lb.value()) << spec.name << " trial=" << trial;
      ASSERT_EQ(s.total_amount(), w.demand.total_weight())
          << spec.name << " trial=" << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, ScenarioFamilyProperties,
                         ::testing::Values("uniform", "heterogeneous",
                                           "asymmetric", "hotspot",
                                           "sparse_giant", "fault_storm"));

TEST(SolverProperties, DeterministicForFixedInput) {
  Rng rng(444);
  RandomGraphConfig config;
  const BipartiteGraph g = random_bipartite(rng, config);
  const Schedule a = solve_kpbs(g, {5, 1, Algorithm::kOGGP}).schedule;
  const Schedule b = solve_kpbs(g, {5, 1, Algorithm::kOGGP}).schedule;
  ASSERT_EQ(a.step_count(), b.step_count());
  ASSERT_EQ(a.cost(1), b.cost(1));
  for (std::size_t i = 0; i < a.step_count(); ++i) {
    ASSERT_EQ(a.steps()[i].size(), b.steps()[i].size());
    ASSERT_EQ(a.steps()[i].duration(), b.steps()[i].duration());
  }
}

}  // namespace
}  // namespace redist
