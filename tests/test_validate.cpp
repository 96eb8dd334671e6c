// Unit tests of the validator subsystem: reports, graph audits, the
// regularization contract, and acceptance of every schedule the solvers
// and baselines produce (the validators must never cry wolf).
#include <gtest/gtest.h>

#include "baselines/coloring.hpp"
#include "baselines/list_scheduling.hpp"
#include "baselines/local_search.hpp"
#include "baselines/naive.hpp"
#include "common/rng.hpp"
#include "kpbs/regularize.hpp"
#include "kpbs/schedule_validator.hpp"
#include "kpbs/solver.hpp"
#include "oracle/bottleneck_oracle.hpp"
#include "oracle/graph_validator.hpp"
#include "oracle/weight_regular.hpp"
#include "workload/random_graphs.hpp"

namespace redist {
namespace {

ScheduleValidator make_validator(int k, Weight beta, bool bound = false) {
  ScheduleValidatorOptions options;
  options.k = k;
  options.beta = beta;
  options.check_approximation_bound = bound;
  return ScheduleValidator(options);
}

// -- ValidationReport --------------------------------------------------------

TEST(ValidationReport, StartsCleanAndAccumulates) {
  ValidationReport report;
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.to_string(), "ok");
  EXPECT_NO_THROW(report.throw_if_failed("context"));

  report.add(InvariantKind::kCoverage, "pair 0->1 under-transferred");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(InvariantKind::kCoverage));
  EXPECT_FALSE(report.has(InvariantKind::kMatching));
  EXPECT_NE(report.to_string().find("[coverage]"), std::string::npos);
  EXPECT_THROW(report.throw_if_failed("context"), Error);

  ValidationReport other;
  other.add(InvariantKind::kMatching, "sender reused");
  report.merge(other);
  EXPECT_EQ(report.violations().size(), 2u);
  EXPECT_TRUE(report.has(InvariantKind::kMatching));
}

// -- GraphValidator ----------------------------------------------------------

TEST(GraphValidator, AcceptsLiveAndPeeledGraphs) {
  Rng rng(11);
  RandomGraphConfig config;
  config.max_left = 12;
  config.max_right = 12;
  config.max_edges = 50;
  for (int trial = 0; trial < 20; ++trial) {
    BipartiteGraph g = random_bipartite(rng, config);
    EXPECT_TRUE(GraphValidator::validate(g).ok());
    // Partially consume some edges; aggregates must stay consistent.
    for (EdgeId e = 0; e < g.edge_count(); e += 2) {
      if (g.alive(e)) g.decrease_weight(e, 1);
    }
    EXPECT_TRUE(GraphValidator::validate(g).ok());
  }
}

TEST(GraphValidator, WeightRegularAuditMatchesGenerator) {
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    BipartiteGraph g = random_weight_regular(rng, 6, 3, 1, 9);
    EXPECT_TRUE(GraphValidator::validate_weight_regular(g).ok());
  }
  // An irregular graph must be flagged.
  BipartiteGraph bad(2, 2);
  bad.add_edge(0, 0, 5);
  bad.add_edge(1, 1, 3);
  const ValidationReport report =
      GraphValidator::validate_weight_regular(bad);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(InvariantKind::kRegularity));
}

TEST(GraphValidator, WeightRegularChecksExpectedValue) {
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 4);
  g.add_edge(1, 1, 4);
  EXPECT_TRUE(GraphValidator::validate_weight_regular(g, 4).ok());
  EXPECT_FALSE(GraphValidator::validate_weight_regular(g, 5).ok());
}

TEST(GraphValidator, AcceptsRegularizeOutput) {
  Rng rng(17);
  RandomGraphConfig config;
  config.max_left = 10;
  config.max_right = 10;
  config.max_edges = 30;
  for (int trial = 0; trial < 25; ++trial) {
    const BipartiteGraph g = random_bipartite(rng, config);
    for (const int k : {1, 2, 5}) {
      const Regularized reg = regularize(g, k);
      const ValidationReport report =
          GraphValidator::validate_regularized(g, reg);
      EXPECT_TRUE(report.ok()) << report.to_string();
    }
  }
}

TEST(GraphValidator, RejectsTamperedRegularization) {
  BipartiteGraph g(2, 2);
  g.add_edge(0, 1, 6);
  g.add_edge(1, 0, 2);
  Regularized reg = regularize(g, 2);
  ASSERT_TRUE(GraphValidator::validate_regularized(g, reg).ok());

  // Lie about the regular weight: every node now "has the wrong c".
  Regularized wrong_c = reg;
  wrong_c.regular_weight += 1;
  EXPECT_TRUE(GraphValidator::validate_regularized(g, wrong_c)
                  .has(InvariantKind::kRegularity));

  // Truncate the origin map: coverage of the mapping is broken.
  Regularized short_map = reg;
  short_map.origin.pop_back();
  EXPECT_TRUE(GraphValidator::validate_regularized(g, short_map)
                  .has(InvariantKind::kRegularity));

  // Point an original edge's origin at the wrong source edge.
  Regularized wrong_origin = reg;
  ASSERT_GE(wrong_origin.origin.size(), 2u);
  std::swap(wrong_origin.origin[0], wrong_origin.origin[1]);
  EXPECT_TRUE(GraphValidator::validate_regularized(g, wrong_origin)
                  .has(InvariantKind::kRegularity));
}

// -- ScheduleValidator acceptance --------------------------------------------

// The regression families of test_regression_instances.cpp, in miniature:
// every solver and baseline schedule on them must pass the validator.
std::vector<BipartiteGraph> corpus() {
  std::vector<BipartiteGraph> graphs;
  {  // interlocked heavy/light cycle
    BipartiteGraph g(6, 6);
    for (NodeId i = 0; i < 6; ++i) {
      g.add_edge(i, i, 50);
      g.add_edge(i, (i + 1) % 6, 1);
    }
    graphs.push_back(std::move(g));
  }
  {  // unit star
    BipartiteGraph g(1, 8);
    for (NodeId j = 0; j < 8; ++j) g.add_edge(0, j, 1);
    graphs.push_back(std::move(g));
  }
  {  // dense unit block
    BipartiteGraph g(5, 5);
    for (NodeId i = 0; i < 5; ++i) {
      for (NodeId j = 0; j < 5; ++j) g.add_edge(i, j, 1);
    }
    graphs.push_back(std::move(g));
  }
  {  // giant among dust
    BipartiteGraph g(5, 5);
    g.add_edge(0, 0, 1000);
    for (NodeId i = 1; i < 5; ++i) g.add_edge(i, i, 1);
    graphs.push_back(std::move(g));
  }
  return graphs;
}

TEST(ScheduleValidator, AcceptsSolverSchedulesWithBound) {
  for (const BipartiteGraph& g : corpus()) {
    for (const int k : {1, 3, 8}) {
      for (const Weight beta : {Weight{0}, Weight{1}, Weight{10}}) {
        for (const auto& [name, s] : oracle::every_peeling(g, k, beta)) {
          const ValidationReport report =
              make_validator(clamp_k(g, k), beta, /*bound=*/true)
                  .validate(g, s);
          EXPECT_TRUE(report.ok()) << name << " k=" << k << " beta=" << beta
                                   << ": " << report.to_string();
        }
      }
    }
  }
}

TEST(ScheduleValidator, AcceptsBaselineSchedules) {
  for (const BipartiteGraph& g : corpus()) {
    for (const int k : {1, 3, 8}) {
      const int k_eff = clamp_k(g, k);
      std::vector<Schedule> schedules;
      schedules.push_back(naive_matching_schedule(g, k_eff));
      schedules.push_back(list_schedule(g, k_eff));
      schedules.push_back(coloring_schedule(g, k_eff));
      {
        Schedule improved = list_schedule(g, k_eff);
        improve_schedule(g, k_eff, 1, improved, 4);
        schedules.push_back(std::move(improved));
      }
      for (const Schedule& s : schedules) {
        // Baselines carry no 2x guarantee: validate everything but the bound.
        const ValidationReport report =
            make_validator(k_eff, 1).validate(g, s);
        EXPECT_TRUE(report.ok()) << report.to_string();
      }
    }
  }
}

TEST(ScheduleValidator, AcceptsRandomInstances) {
  Rng rng(23);
  RandomGraphConfig config;
  config.max_left = 15;
  config.max_right = 15;
  config.max_edges = 60;
  for (int trial = 0; trial < 30; ++trial) {
    const BipartiteGraph g = random_bipartite(rng, config);
    const int k = static_cast<int>(rng.uniform_int(1, 6));
    const Weight beta = rng.uniform_int(0, 5);
    const Schedule s = solve_kpbs(g, {k, beta, Algorithm::kOGGP}).schedule;
    const ValidationReport report =
        make_validator(clamp_k(g, k), beta, /*bound=*/true).validate(g, s);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

TEST(ScheduleValidator, ChecksReportedMakespan) {
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 3);
  g.add_edge(1, 1, 5);
  const Weight beta = 2;
  const Schedule s = solve_kpbs(g, {2, beta, Algorithm::kOGGP}).schedule;

  ScheduleValidatorOptions options;
  options.k = 2;
  options.beta = beta;
  options.reported_makespan = s.cost(beta);
  EXPECT_TRUE(ScheduleValidator(options).validate(g, s).ok());

  options.reported_makespan = s.cost(beta) + 1;
  const ValidationReport report = ScheduleValidator(options).validate(g, s);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(InvariantKind::kMakespan));
}

TEST(ScheduleValidator, FlagsScheduleBeyondTwiceTheLowerBound) {
  // One edge of weight 4, k = 1, beta = 0: the lower bound is 4. A schedule
  // that covers the demand in 5 unit pieces is feasible but, with beta = 3,
  // costs 5*(3+1) = 20 > 2 * (3 + 4) = 14.
  BipartiteGraph g(1, 1);
  g.add_edge(0, 0, 5);
  Schedule s;
  for (int i = 0; i < 5; ++i) {
    Step step;
    step.comms.push_back(Communication{0, 0, 1});
    s.add_step(std::move(step));
  }
  const ValidationReport report =
      make_validator(1, 3, /*bound=*/true).validate(g, s);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(InvariantKind::kApproximation));
  // Without the bound check the same schedule is perfectly feasible.
  EXPECT_TRUE(make_validator(1, 3).validate(g, s).ok());
}

}  // namespace
}  // namespace redist
