#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "oracle/weight_regular.hpp"
#include "workload/random_graphs.hpp"
#include "workload/uniform_traffic.hpp"

namespace redist {
namespace {

TEST(RandomGraphs, RespectsConfiguredBounds) {
  Rng rng(1);
  RandomGraphConfig config;
  config.max_left = 6;
  config.max_right = 9;
  config.max_edges = 11;
  config.min_weight = 3;
  config.max_weight = 5;
  for (int trial = 0; trial < 50; ++trial) {
    const BipartiteGraph g = random_bipartite(rng, config);
    EXPECT_GE(g.left_count(), 1);
    EXPECT_LE(g.left_count(), 6);
    EXPECT_GE(g.right_count(), 1);
    EXPECT_LE(g.right_count(), 9);
    EXPECT_GE(g.alive_edge_count(), 1);
    EXPECT_LE(g.alive_edge_count(), 11);
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      EXPECT_GE(g.edge(e).weight, 3);
      EXPECT_LE(g.edge(e).weight, 5);
    }
  }
}

TEST(RandomGraphs, NoParallelEdges) {
  Rng rng(2);
  RandomGraphConfig config;
  config.max_left = 4;
  config.max_right = 4;
  config.max_edges = 16;
  for (int trial = 0; trial < 30; ++trial) {
    const BipartiteGraph g = random_bipartite(rng, config);
    std::set<std::pair<NodeId, NodeId>> pairs;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const Edge& edge = g.edge(e);
      EXPECT_TRUE(pairs.insert({edge.left, edge.right}).second)
          << "duplicate pair " << edge.left << "," << edge.right;
    }
  }
}

TEST(RandomGraphs, DenseRequestsReachFullBipartite) {
  Rng rng(3);
  RandomGraphConfig config;
  config.max_left = 3;
  config.max_right = 3;
  config.max_edges = 9;
  bool saw_full = false;
  for (int trial = 0; trial < 200 && !saw_full; ++trial) {
    saw_full = random_bipartite(rng, config).alive_edge_count() == 9;
  }
  EXPECT_TRUE(saw_full);
}

TEST(RandomGraphs, DeterministicGivenSeed) {
  RandomGraphConfig config;
  Rng a(99);
  Rng b(99);
  const BipartiteGraph ga = random_bipartite(a, config);
  const BipartiteGraph gb = random_bipartite(b, config);
  ASSERT_EQ(ga.edge_count(), gb.edge_count());
  for (EdgeId e = 0; e < ga.edge_count(); ++e) {
    EXPECT_EQ(ga.edge(e).left, gb.edge(e).left);
    EXPECT_EQ(ga.edge(e).right, gb.edge(e).right);
    EXPECT_EQ(ga.edge(e).weight, gb.edge(e).weight);
  }
}

TEST(RandomWeightRegular, IsRegularWithExpectedSides) {
  Rng rng(4);
  const BipartiteGraph g = random_weight_regular(rng, 12, 4, 2, 7);
  EXPECT_EQ(g.left_count(), 12);
  EXPECT_EQ(g.right_count(), 12);
  Weight c = 0;
  EXPECT_TRUE(g.is_weight_regular(&c));
  EXPECT_GE(c, 4 * 2);
  EXPECT_LE(c, 4 * 7);
}

TEST(UniformTraffic, AllPairsInRange) {
  Rng rng(5);
  const TrafficMatrix m = uniform_all_pairs_traffic(rng, 4, 5, 10, 20);
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId j = 0; j < 5; ++j) {
      EXPECT_GE(m.at(i, j), 10);
      EXPECT_LE(m.at(i, j), 20);
    }
  }
  EXPECT_EQ(m.nonzero_count(), 20);
}

TEST(UniformTraffic, SparseDensityRoughlyHonored) {
  Rng rng(6);
  const TrafficMatrix m = uniform_sparse_traffic(rng, 30, 30, 0.25, 1, 5);
  const double fill = static_cast<double>(m.nonzero_count()) / 900.0;
  EXPECT_NEAR(fill, 0.25, 0.08);
}

TEST(UniformTraffic, ValidatesArguments) {
  Rng rng(7);
  EXPECT_THROW(uniform_sparse_traffic(rng, 2, 2, 1.5, 1, 2), Error);
  EXPECT_THROW(uniform_sparse_traffic(rng, 2, 2, 0.5, 5, 2), Error);
}

}  // namespace
}  // namespace redist
