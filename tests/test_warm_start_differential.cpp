// Differential tests for the peeling engine: on hundreds of seeded random
// instances (varying sizes, k, beta, weight skew), every production
// GGP/OGGP schedule must be step-for-step identical to the test oracle's
// (tests/oracle: a from-scratch threshold search per step, with the paper's
// Figure 6 confirming each bottleneck value), and ScheduleValidator must
// accept both. A second layer checks the identity at the WRGP peel level
// (matching edge ids included), which is stricter than schedule equality.
// The last tests pin cross-instance warm seeds: whatever the seed, the
// schedule must not change.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "kpbs/regularize.hpp"
#include "kpbs/solver.hpp"
#include "kpbs/wrgp.hpp"
#include "matching/peeling_context.hpp"
#include "oracle/bottleneck_oracle.hpp"
#include "validate/schedule_validator.hpp"
#include "workload/random_graphs.hpp"

namespace redist {
namespace {

void expect_identical_schedules(const Schedule& oracle, const Schedule& got,
                                const std::string& context) {
  ASSERT_EQ(oracle.step_count(), got.step_count()) << context;
  for (std::size_t s = 0; s < oracle.step_count(); ++s) {
    const Step& a = oracle.steps()[s];
    const Step& b = got.steps()[s];
    ASSERT_EQ(a.comms.size(), b.comms.size()) << context << " step " << s;
    for (std::size_t c = 0; c < a.comms.size(); ++c) {
      ASSERT_EQ(a.comms[c].sender, b.comms[c].sender)
          << context << " step " << s << " comm " << c;
      ASSERT_EQ(a.comms[c].receiver, b.comms[c].receiver)
          << context << " step " << s << " comm " << c;
      ASSERT_EQ(a.comms[c].amount, b.comms[c].amount)
          << context << " step " << s << " comm " << c;
    }
  }
}

struct DifferentialCase {
  std::uint64_t seed;
  Weight beta;
  Weight max_weight;  // weight skew: 1..max_weight
  NodeId max_nodes;
  int max_edges;
  int trials;
};

class WarmStartDifferential
    : public ::testing::TestWithParam<DifferentialCase> {};

// Four parameter sets x 60 trials x {GGP, OGGP} = 240 instances compared,
// every one validated by ScheduleValidator on both paths.
TEST_P(WarmStartDifferential, WarmSchedulesMatchColdStepForStep) {
  const DifferentialCase param = GetParam();
  Rng rng(param.seed);
  for (int trial = 0; trial < param.trials; ++trial) {
    RandomGraphConfig config;
    config.max_left = param.max_nodes;
    config.max_right = param.max_nodes;
    config.max_edges = param.max_edges;
    config.max_weight = param.max_weight;
    const BipartiteGraph g = random_bipartite(rng, config);
    const int k = static_cast<int>(
        rng.uniform_int(1, static_cast<std::int64_t>(param.max_nodes) + 4));
    for (const Algorithm algo : {Algorithm::kGGP, Algorithm::kOGGP}) {
      const std::string context = algorithm_name(algo) + " seed=" +
                                  std::to_string(param.seed) + " trial=" +
                                  std::to_string(trial) + " k=" +
                                  std::to_string(k);
      const Schedule reference = oracle::solve(g, k, param.beta, algo);
      const Schedule production =
          solve_kpbs(g, {k, param.beta, algo}).schedule;
      expect_identical_schedules(reference, production, context);

      ScheduleValidatorOptions options;
      options.k = clamp_k(g, k);
      options.beta = param.beta;
      options.check_approximation_bound = true;
      const ScheduleValidator validator(options);
      EXPECT_TRUE(validator.validate(g, reference).ok())
          << context << " (oracle)";
      EXPECT_TRUE(validator.validate(g, production).ok())
          << context << " (production)";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WarmStartDifferential,
    ::testing::Values(
        DifferentialCase{601, 1, 20, 12, 40, 60},      // paper-ish weights
        DifferentialCase{602, 0, 10000, 10, 40, 60},   // heavy skew, beta=0
        DifferentialCase{603, 7, 3, 14, 60, 60},       // many weight ties
        DifferentialCase{604, 2, 200, 8, 30, 60}));    // mid skew, small n

// Larger instances exercise longer peel sequences and deeper binary
// searches (more warm-start reuse per run).
TEST(WarmStartDifferential, LargerInstances) {
  Rng rng(77);
  for (int trial = 0; trial < 3; ++trial) {
    RandomGraphConfig config;
    config.max_left = 24;
    config.max_right = 24;
    config.max_edges = 200;
    config.max_weight = 500;
    const BipartiteGraph g = random_bipartite(rng, config);
    for (const Algorithm algo : {Algorithm::kGGP, Algorithm::kOGGP}) {
      expect_identical_schedules(
          oracle::solve(g, 6, 1, algo), solve_kpbs(g, {6, 1, algo}).schedule,
          algorithm_name(algo) + " trial=" + std::to_string(trial));
    }
  }
}

// WRGP-level identity: stricter than schedule equality — the peeled
// matchings must contain the same edge ids in the same order, so even
// synthetic (filler/deficit) edge choices agree with the oracle.
TEST(WarmStartDifferential, PeelSequencesIdenticalAtWrgpLevel) {
  Rng rng(4242);
  for (int trial = 0; trial < 25; ++trial) {
    const NodeId n = static_cast<NodeId>(rng.uniform_int(2, 10));
    const int layers = static_cast<int>(rng.uniform_int(2, 6));
    BipartiteGraph oracle_g = random_weight_regular(rng, n, layers, 1, 50);
    BipartiteGraph warm_g = oracle_g;

    const auto oracle_steps =
        wrgp_peel(oracle_g, oracle::bottleneck_perfect_matching);
    PeelingContext ctx;
    const auto warm_steps =
        wrgp_peel_warm(warm_g, WarmStrategy::kBottleneck, ctx);

    ASSERT_EQ(oracle_steps.size(), warm_steps.size()) << "trial " << trial;
    for (std::size_t s = 0; s < oracle_steps.size(); ++s) {
      EXPECT_EQ(oracle_steps[s].amount, warm_steps[s].amount)
          << "trial " << trial << " step " << s;
      EXPECT_EQ(oracle_steps[s].matching.edges, warm_steps[s].matching.edges)
          << "trial " << trial << " step " << s;
    }
  }
}

// The arbitrary (GGP) strategy likewise replays max_matching's choices.
TEST(WarmStartDifferential, ArbitraryPeelSequencesIdentical) {
  Rng rng(995);
  for (int trial = 0; trial < 25; ++trial) {
    const NodeId n = static_cast<NodeId>(rng.uniform_int(2, 10));
    const int layers = static_cast<int>(rng.uniform_int(2, 6));
    BipartiteGraph oracle_g = random_weight_regular(rng, n, layers, 1, 50);
    BipartiteGraph warm_g = oracle_g;

    const auto oracle_steps =
        wrgp_peel(oracle_g, oracle::arbitrary_perfect_matching);
    PeelingContext ctx;
    const auto warm_steps =
        wrgp_peel_warm(warm_g, WarmStrategy::kArbitrary, ctx);

    ASSERT_EQ(oracle_steps.size(), warm_steps.size()) << "trial " << trial;
    for (std::size_t s = 0; s < oracle_steps.size(); ++s) {
      EXPECT_EQ(oracle_steps[s].amount, warm_steps[s].amount)
          << "trial " << trial << " step " << s;
      EXPECT_EQ(oracle_steps[s].matching.edges, warm_steps[s].matching.edges)
          << "trial " << trial << " step " << s;
    }
  }
}

// kGGPMaxWeight bypasses PeelingContext: it peels with the Hungarian
// strategy from scratch every step, exactly as the oracle does.
TEST(WarmStartDifferential, MaxWeightAblationFallsBackToCold) {
  Rng rng(31);
  RandomGraphConfig config;
  config.max_left = 8;
  config.max_right = 8;
  config.max_edges = 24;
  const BipartiteGraph g = random_bipartite(rng, config);
  expect_identical_schedules(
      oracle::solve(g, 3, 1, Algorithm::kGGPMaxWeight),
      solve_kpbs(g, {3, 1, Algorithm::kGGPMaxWeight}).schedule, "ggp-mw");
}

// A seed whose surviving edges share an endpoint is not a matching, so
// counting them must not prove a threshold feasible. Weight-regular with
// c = 4; the only weight-2 edges of rows 0 and 1 both end in column 0, so
// threshold 2 is infeasible and the bottleneck is 1.
TEST(WarmSeed, NonMatchingSeedCannotFakeFeasibility) {
  BipartiteGraph g(3, 3);
  const EdgeId r0c0 = g.add_edge(0, 0, 2);
  g.add_edge(0, 1, 1);
  g.add_edge(0, 2, 1);
  const EdgeId r1c0 = g.add_edge(1, 0, 2);
  g.add_edge(1, 1, 1);
  g.add_edge(1, 2, 1);
  const EdgeId r2c1 = g.add_edge(2, 1, 2);
  g.add_edge(2, 2, 2);
  Weight c = 0;
  ASSERT_TRUE(g.is_weight_regular(&c));
  ASSERT_EQ(c, 4);

  PeelingContext ctx;
  ctx.seed(Matching{{r0c0, r1c0, r2c1}});
  Matching m;
  ASSERT_NO_THROW(m = ctx.bottleneck_perfect(g));
  EXPECT_TRUE(is_perfect_matching(g, m));
  EXPECT_EQ(min_weight(g, m), 1);
  EXPECT_EQ(m.edges, oracle::bottleneck_perfect_threshold(g).edges);
}

// The daemon's near-miss path: a same-shape donor (every entry drifted by
// 0-20) hands its warm handle to the recipient's solve. The seeded solve
// must not throw and must emit the unseeded solve's bytes.
TEST(WarmSeed, SameShapeDonorLeavesSchedulesUnchanged) {
  Rng rng(20260);
  for (int trial = 0; trial < 3000; ++trial) {
    const auto n = static_cast<NodeId>(rng.uniform_int(3, 10));
    BipartiteGraph donor(n, n);
    BipartiteGraph recipient(n, n);
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        if (rng.uniform_int(0, 2) == 0) continue;
        const Weight w = rng.uniform_int(1, 40);
        donor.add_edge(i, j, w);
        recipient.add_edge(i, j, w + rng.uniform_int(0, 20));
      }
    }
    if (donor.empty()) continue;
    SolverOptions options;
    options.k = static_cast<int>(rng.uniform_int(1, n));
    options.beta = rng.uniform_int(0, 2);
    options.algorithm = Algorithm::kOGGP;
    const std::string context = "trial=" + std::to_string(trial);

    const SolveResult donated = solve_kpbs(donor, options);
    ASSERT_NE(donated.warm_handle, nullptr) << context;
    const Schedule unseeded = solve_kpbs(recipient, options).schedule;
    options.warm_seed = donated.warm_handle;
    Schedule seeded;
    ASSERT_NO_THROW(seeded = solve_kpbs(recipient, options).schedule)
        << context;
    expect_identical_schedules(unseeded, seeded, context);
  }
}

}  // namespace
}  // namespace redist
