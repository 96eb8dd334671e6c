// Differential tests for the peeling engine on hundreds of seeded random
// instances (varying sizes, k, beta, weight skew). GGP schedules must be
// step-for-step identical to the test oracle's from-scratch peel. OGGP
// steps must keep the paper's contract, checked on every step against the
// oracle (tests/oracle: a from-scratch threshold search, confirmed by the
// paper's Figure 6): a perfect matching of the residual whose minimum is
// the optimal bottleneck. ScheduleValidator must accept every schedule. A
// second layer checks the peel itself (matching edge ids included).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "kpbs/regularize.hpp"
#include "kpbs/schedule_validator.hpp"
#include "kpbs/solver.hpp"
#include "kpbs/wrgp.hpp"
#include "matching/peeling_context.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "oracle/bottleneck_oracle.hpp"
#include "oracle/weight_regular.hpp"
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

void expect_identical_peels(const std::vector<PeelStep>& a,
                            const std::vector<PeelStep>& b,
                            const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].amount, b[s].amount) << context << " step " << s;
    EXPECT_EQ(a[s].matching.edges, b[s].matching.edges)
        << context << " step " << s;
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
// every one validated by ScheduleValidator on both paths. oracle::solve is
// the from-scratch peel for GGP; for OGGP it is production's peel with
// every step audited against the optimal bottleneck, so equality here says
// solve_kpbs returns the audited steps.
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

// Larger instances exercise longer peel sequences and so longer chains of
// repairs, each OGGP step audited as above.
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

// WRGP level: every OGGP step is a perfect matching of its residual whose
// minimum is the oracle's optimal bottleneck (checked_oggp_peel throws
// otherwise), and oracle::per_step_peel peels exactly those matchings,
// edge id for edge id.
TEST(WarmStartDifferential, PeelSequencesIdenticalAtWrgpLevel) {
  Rng rng(4242);
  for (int trial = 0; trial < 25; ++trial) {
    const NodeId n = static_cast<NodeId>(rng.uniform_int(2, 10));
    const int layers = static_cast<int>(rng.uniform_int(2, 6));
    BipartiteGraph oracle_g = random_weight_regular(rng, n, layers, 1, 50);
    BipartiteGraph warm_g = oracle_g;

    const auto oracle_steps = oracle::checked_oggp_peel(oracle_g);
    const auto warm_steps =
        oracle::per_step_peel(warm_g, Algorithm::kOGGP);
    expect_identical_peels(oracle_steps, warm_steps,
                           "trial " + std::to_string(trial));
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
    const auto warm_steps =
        oracle::per_step_peel(warm_g, Algorithm::kGGP);
    expect_identical_peels(oracle_steps, warm_steps,
                           "trial " + std::to_string(trial));
  }
}

// Regularized random demands of up to 1e9 bytes per pair: the weights are
// mostly distinct and pass 1e9, so the cap probes rarely hit a tie. Every
// step is audited against the oracle's optimal bottleneck.
TEST(WarmStartDifferential, LargeDistinctWeightsPeelIdentically) {
  Rng rng(1000000007);
  RandomGraphConfig config;
  config.max_left = 10;
  config.max_right = 10;
  config.max_edges = 40;
  config.max_weight = 1'000'000'000;
  std::size_t edges = 0;
  std::size_t distinct = 0;
  Weight heaviest = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const BipartiteGraph demand = random_bipartite(rng, config);
    const int k = static_cast<int>(rng.uniform_int(1, 6));
    BipartiteGraph oracle_g = regularize(demand, k).graph;
    BipartiteGraph warm_g = oracle_g;
    std::vector<Weight> weights;
    for (const Edge& e : oracle_g.edges()) weights.push_back(e.weight);
    std::sort(weights.begin(), weights.end());
    edges += weights.size();
    distinct += static_cast<std::size_t>(
        std::unique(weights.begin(), weights.end()) - weights.begin());
    heaviest = std::max(heaviest, weights.back());

    const auto oracle_steps = oracle::checked_oggp_peel(oracle_g);
    const auto warm_steps =
        oracle::per_step_peel(warm_g, Algorithm::kOGGP);
    expect_identical_peels(oracle_steps, warm_steps,
                           "trial " + std::to_string(trial));
  }
  EXPECT_GT(2 * distinct, edges);
  EXPECT_GT(heaviest, 1'000'000'000);
}

// Widest augmenting paths must land on the oracle's optimal bottleneck,
// so every step's minimum equals it. The demands have parallel edges and
// random weights up to 3e9, and some cap probe must miss by two or more
// edges, so one step chains several paths (each path is one
// bottleneck.widest_paths count).
TEST(WarmStartDifferential, WidestPathsMatchOracle) {
  Rng rng(1709);
  std::size_t parallel = 0;
  std::uint64_t largest_deficit = 0;
  std::size_t steps = 0;
  Weight heaviest = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<NodeId>(rng.uniform_int(2, 12));
    BipartiteGraph demand(n, n);
    const auto m = rng.uniform_int(n, 4 * static_cast<std::int64_t>(n));
    for (std::int64_t i = 0; i < m; ++i) {
      const auto left = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      const auto right = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      for (EdgeId e : demand.edges_of_left(left)) {
        if (demand.edge(e).right == right) ++parallel;
      }
      demand.add_edge(left, right, rng.uniform_int(1, 3'000'000'000));
    }
    const int k = static_cast<int>(rng.uniform_int(1, n));
    BipartiteGraph g = regularize(demand, k).graph;
    for (const Edge& e : g.edges()) heaviest = std::max(heaviest, e.weight);

    obs::MetricsRegistry registry;
    const obs::ScopedTelemetry scope(&registry, nullptr);
    obs::Counter& widest = registry.counter("bottleneck.widest_paths");
    std::uint64_t seen = 0;  // widest paths up to the previous step
    // The observer runs once per step, after that step's search.
    const PeelObserver count_paths = [&](const BipartiteGraph&,
                                         const Matching&, Weight) {
      largest_deficit = std::max(largest_deficit, widest.value() - seen);
      seen = widest.value();
    };
    steps += oracle::checked_oggp_peel(g, count_paths).size();
  }
  EXPECT_GT(steps, 0u);
  EXPECT_GT(parallel, 0u);
  EXPECT_GT(heaviest, 1'000'000'000);
  EXPECT_GE(largest_deficit, 2u);
}

}  // namespace
}  // namespace redist
