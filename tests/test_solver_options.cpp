// Tests for the unified SolverOptions/SolveResult surface (kpbs/options):
// SolveResult's derived fields against their first-principles definitions,
// agreement with the test oracle through the options surface, the shared
// --algo parser, and the single flag surface used by the CLI and
// benchmarks.
#include "kpbs/options.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "kpbs/lower_bound.hpp"
#include "kpbs/solver.hpp"
#include "oracle/bottleneck_oracle.hpp"
#include "workload/random_graphs.hpp"

namespace redist {
namespace {

BipartiteGraph demo_graph() {
  BipartiteGraph g(3, 3);
  g.add_edge(0, 0, 10);
  g.add_edge(0, 1, 4);
  g.add_edge(1, 1, 7);
  g.add_edge(2, 2, 3);
  g.add_edge(2, 0, 1);
  return g;
}

void expect_identical_schedules(const Schedule& a, const Schedule& b) {
  ASSERT_EQ(a.step_count(), b.step_count());
  for (std::size_t s = 0; s < a.step_count(); ++s) {
    const auto& sa = a.steps()[s].comms;
    const auto& sb = b.steps()[s].comms;
    ASSERT_EQ(sa.size(), sb.size()) << "step " << s;
    for (std::size_t c = 0; c < sa.size(); ++c) {
      EXPECT_EQ(sa[c].sender, sb[c].sender) << "step " << s;
      EXPECT_EQ(sa[c].receiver, sb[c].receiver) << "step " << s;
      EXPECT_EQ(sa[c].amount, sb[c].amount) << "step " << s;
    }
  }
}

TEST(SolverOptions, DefaultsAreWarmOggp) {
  const SolverOptions options;
  EXPECT_EQ(options.k, 1);
  EXPECT_EQ(options.beta, 1);
  EXPECT_EQ(options.algorithm, Algorithm::kOGGP);
  EXPECT_EQ(options.warm_seed, nullptr);
}

TEST(SolverOptions, SolveResultFieldsMatchFirstPrinciples) {
  const BipartiteGraph g = demo_graph();
  const SolverOptions options{2, 3, Algorithm::kOGGP};
  const SolveResult result = solve_kpbs(g, options);
  validate_schedule(g, result.schedule, options.k);

  const LowerBound reference = kpbs_lower_bound(g, options.k, options.beta);
  EXPECT_EQ(result.lower_bound.min_steps, reference.min_steps);
  EXPECT_EQ(result.lower_bound.beta, reference.beta);
  EXPECT_DOUBLE_EQ(result.lower_bound.value_double(),
                   reference.value_double());

  const double expected_ratio =
      static_cast<double>(result.schedule.cost(options.beta)) /
      reference.value_double();
  EXPECT_DOUBLE_EQ(result.evaluation_ratio, expected_ratio);
  EXPECT_GE(result.evaluation_ratio, 1.0);
  EXPECT_GE(result.solve_ms, 0.0);
}

TEST(SolverOptions, EmptyDemandHasUnitRatio) {
  const BipartiteGraph g(4, 4);
  const SolveResult result = solve_kpbs(g, SolverOptions{2, 1});
  EXPECT_EQ(result.schedule.step_count(), 0u);
  EXPECT_DOUBLE_EQ(result.evaluation_ratio, 1.0);
}

// The positional overload is gone (deprecation window closed). This pins
// what replaced the old equivalence check: its (k, beta, algorithm)
// arguments live in SolverOptions, and solving through them yields the
// test oracle's schedule.
TEST(SolverOptions, RemovedPositionalOverloadSemanticsLiveInOptions) {
  Rng rng(2026);
  RandomGraphConfig config;
  config.max_left = 6;
  config.max_right = 6;
  config.max_edges = 18;
  config.max_weight = 40;
  for (int trial = 0; trial < 25; ++trial) {
    const BipartiteGraph g = random_bipartite(rng, config);
    const int k = static_cast<int>(rng.uniform_int(1, 6));
    for (const Algorithm algo : {Algorithm::kGGP, Algorithm::kOGGP}) {
      expect_identical_schedules(oracle::solve(g, k, 1, algo),
                                 solve_kpbs(g, {k, 1, algo}).schedule);
    }
  }
}

TEST(SolverOptions, WarmAndColdEnginesAgreeThroughOptions) {
  Rng rng(4242);
  RandomGraphConfig config;
  config.max_left = 5;
  config.max_right = 5;
  config.max_edges = 14;
  config.max_weight = 25;
  for (int trial = 0; trial < 25; ++trial) {
    const BipartiteGraph g = random_bipartite(rng, config);
    const SolverOptions options{3, 2, Algorithm::kOGGP};
    const SolveResult warm = solve_kpbs(g, options);
    const Schedule cold = oracle::solve(g, 3, 2, Algorithm::kOGGP);
    expect_identical_schedules(warm.schedule, cold);
    EXPECT_DOUBLE_EQ(warm.evaluation_ratio,
                     evaluation_ratio(g, cold, options.k, options.beta));
  }
}

TEST(SolverOptions, AlgorithmParserCoversTheCliVocabulary) {
  EXPECT_EQ(parse_algorithm("ggp"), Algorithm::kGGP);
  EXPECT_EQ(parse_algorithm("GGP"), Algorithm::kGGP);
  EXPECT_EQ(parse_algorithm("oggp"), Algorithm::kOGGP);
  EXPECT_EQ(parse_algorithm("OGGP"), Algorithm::kOGGP);
  EXPECT_EQ(parse_algorithm("ggp-mw"), Algorithm::kGGPMaxWeight);
  EXPECT_THROW(parse_algorithm(""), Error);
  EXPECT_THROW(parse_algorithm("simulated-annealing"), Error);
}

Flags make_flags(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(SolverOptions, FlagsFallBackToCallerDefaults) {
  Flags flags = make_flags({});
  const SolverOptions defaults{4, 2, Algorithm::kGGP};
  const SolverOptions parsed = solver_options_from_flags(flags, defaults);
  EXPECT_EQ(parsed.k, 4);
  EXPECT_EQ(parsed.beta, 2);
  EXPECT_EQ(parsed.algorithm, Algorithm::kGGP);
}

TEST(SolverOptions, FlagsOverrideEveryField) {
  Flags flags = make_flags({"--k=7", "--beta=5", "--algo=ggp-mw"});
  const SolverOptions parsed = solver_options_from_flags(
      flags, SolverOptions{1, 1, Algorithm::kGGP});
  EXPECT_EQ(parsed.k, 7);
  EXPECT_EQ(parsed.beta, 5);
  EXPECT_EQ(parsed.algorithm, Algorithm::kGGPMaxWeight);
}

TEST(SolverOptions, FlagsRejectUnknownAlgorithm) {
  Flags flags = make_flags({"--algo=quantum"});
  EXPECT_THROW(solver_options_from_flags(flags), Error);
}

}  // namespace
}  // namespace redist
