// Golden-makespan regression corpus: committed instance files
// (tests/data/golden_*.graph — golden_01..10 produced by `redist_cli
// generate` with the recorded seeds, golden_11..13 materialized from the
// builtin scenario matrix) whose exact GGP/OGGP step counts and costs were captured
// from the reference solver. Any change to normalization, regularization,
// peeling order, matching tie-breaking, or extraction that alters a single
// schedule shows up here as an exact-value diff — for solve_kpbs and for
// the test oracle (tests/oracle), which must agree byte for byte.
#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "graph/graphio.hpp"
#include "kpbs/regularize.hpp"
#include "kpbs/solver.hpp"
#include "oracle/bottleneck_oracle.hpp"

#ifndef REDIST_TEST_DATA_DIR
#error "REDIST_TEST_DATA_DIR must point at tests/data"
#endif

namespace redist {
namespace {

struct GoldenCase {
  const char* file;  // relative to tests/data
  int k;
  Weight beta;
  std::size_t ggp_steps;
  Weight ggp_cost;
  std::size_t oggp_steps;
  Weight oggp_cost;
};

// Captured from the reference solver; see the generation parameters
// in docs/PERF.md. golden_01 is a deliberate degenerate corner (one edge).
constexpr GoldenCase kGolden[] = {
    {"golden_01.graph", 3, 1, 1, 3, 1, 3},
    {"golden_02.graph", 4, 1, 16, 83, 12, 79},
    {"golden_03.graph", 4, 2, 24, 528, 20, 520},
    {"golden_04.graph", 6, 1, 66, 55319, 45, 55298},
    {"golden_05.graph", 2, 0, 4, 6, 4, 6},
    {"golden_06.graph", 1, 5, 14, 511, 14, 511},
    {"golden_07.graph", 8, 1, 82, 236, 27, 181},
    {"golden_08.graph", 3, 10, 16, 1358, 12, 1318},
    {"golden_09.graph", 5, 1, 11, 44, 9, 42},
    {"golden_10.graph", 2, 100, 5, 3456, 4, 3356},
    // Adversarial scenario-matrix instances (workload/scenario.hpp): the
    // demand graphs of the builtin heterogeneous (scale 0.5), hotspot
    // (scale 0.5) and sparse_giant (scale 0.05) scenarios. Heterogeneity is
    // already folded into the weights; hotspot is near-degenerate (one
    // receiver serializes ~80% of the traffic, so GGP == OGGP here).
    {"golden_11.graph", 4, 1, 56, 311, 30, 285},
    {"golden_12.graph", 4, 1, 61, 189, 61, 189},
    {"golden_13.graph", 16, 1, 116, 233, 50, 167},
};

BipartiteGraph load_golden(const std::string& file) {
  const std::string path = std::string(REDIST_TEST_DATA_DIR) + "/" + file;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden instance: " << path;
  return read_graph(in);
}

// Which solver produces the schedule: the test oracle's from-scratch
// ("cold") search, or solve_kpbs's warm-started peeling engine.
enum class SolvePath { kOracle, kProduction };

Schedule solve_with(SolvePath path, const BipartiteGraph& g,
                    const GoldenCase& c, Algorithm algo) {
  return path == SolvePath::kOracle
             ? oracle::solve(g, c.k, c.beta, algo)
             : solve_kpbs(g, {c.k, c.beta, algo}).schedule;
}

class GoldenMakespans : public ::testing::TestWithParam<SolvePath> {};

TEST_P(GoldenMakespans, ExactStepCountsAndCosts) {
  const SolvePath path = GetParam();
  for (const GoldenCase& c : kGolden) {
    const BipartiteGraph g = load_golden(c.file);
    const Schedule ggp = solve_with(path, g, c, Algorithm::kGGP);
    EXPECT_EQ(ggp.step_count(), c.ggp_steps) << c.file << " (ggp)";
    EXPECT_EQ(ggp.cost(c.beta), c.ggp_cost) << c.file << " (ggp)";
    validate_schedule(g, ggp, clamp_k(g, c.k));

    const Schedule oggp = solve_with(path, g, c, Algorithm::kOGGP);
    EXPECT_EQ(oggp.step_count(), c.oggp_steps) << c.file << " (oggp)";
    EXPECT_EQ(oggp.cost(c.beta), c.oggp_cost) << c.file << " (oggp)";
    validate_schedule(g, oggp, clamp_k(g, c.k));
  }
}

// OGGP never produces a costlier schedule than GGP on the corpus — the
// property the paper's Section 5 experiments rely on.
TEST(GoldenMakespans, OggpNeverWorseThanGgpOnCorpus) {
  for (const GoldenCase& c : kGolden) {
    EXPECT_LE(c.oggp_cost, c.ggp_cost) << c.file;
    EXPECT_LE(c.oggp_steps, c.ggp_steps) << c.file;
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, GoldenMakespans,
                         ::testing::Values(SolvePath::kOracle,
                                           SolvePath::kProduction),
                         [](const ::testing::TestParamInfo<SolvePath>& i) {
                           return i.param == SolvePath::kOracle ? "cold"
                                                                : "warm";
                         });

}  // namespace
}  // namespace redist
