#include "graph/bipartite_graph.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hpp"
#include "workload/random_graphs.hpp"

namespace redist {
namespace {

TEST(BipartiteGraph, EmptyGraphAggregates) {
  BipartiteGraph g(3, 4);
  EXPECT_EQ(g.left_count(), 3);
  EXPECT_EQ(g.right_count(), 4);
  EXPECT_EQ(g.edge_count(), 0);
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.total_weight(), 0);
  EXPECT_EQ(g.max_node_weight(), 0);
  EXPECT_EQ(g.max_degree(), 0);
}

TEST(BipartiteGraph, AddEdgeUpdatesAggregates) {
  BipartiteGraph g(2, 2);
  const EdgeId e0 = g.add_edge(0, 1, 5);
  const EdgeId e1 = g.add_edge(1, 1, 3);
  EXPECT_EQ(e0, 0);
  EXPECT_EQ(e1, 1);
  EXPECT_EQ(g.total_weight(), 8);
  EXPECT_EQ(g.node_weight_left(0), 5);
  EXPECT_EQ(g.node_weight_left(1), 3);
  EXPECT_EQ(g.node_weight_right(1), 8);
  EXPECT_EQ(g.node_weight_right(0), 0);
  EXPECT_EQ(g.degree_right(1), 2);
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_EQ(g.max_node_weight(), 8);
  g.check_invariants();
}

TEST(BipartiteGraph, RejectsBadInputs) {
  BipartiteGraph g(2, 2);
  EXPECT_THROW(g.add_edge(0, 0, 0), Error);    // zero weight
  EXPECT_THROW(g.add_edge(0, 0, -1), Error);   // negative weight
  EXPECT_THROW(g.add_edge(2, 0, 1), Error);    // left out of range
  EXPECT_THROW(g.add_edge(0, 2, 1), Error);    // right out of range
  EXPECT_THROW(g.add_edge(-1, 0, 1), Error);

  // Weight sums past INT64_MAX; a refused edge leaves the graph as it was.
  g.add_edge(0, 0, std::numeric_limits<Weight>::max());
  EXPECT_THROW(g.add_edge(1, 1, (Weight{1} << 53) + 1), Error);
  EXPECT_EQ(g.edge_count(), 1);
  g.check_invariants();
}

TEST(BipartiteGraph, DecreaseWeightAndDeath) {
  BipartiteGraph g(1, 1);
  const EdgeId e = g.add_edge(0, 0, 10);
  g.decrease_weight(e, 4);
  EXPECT_EQ(g.edge(e).weight, 6);
  EXPECT_TRUE(g.alive(e));
  EXPECT_EQ(g.degree_left(0), 1);
  g.decrease_weight(e, 6);
  EXPECT_FALSE(g.alive(e));
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.degree_left(0), 0);
  EXPECT_EQ(g.node_weight_left(0), 0);
  g.check_invariants();
}

TEST(BipartiteGraph, DecreaseWeightValidation) {
  BipartiteGraph g(1, 1);
  const EdgeId e = g.add_edge(0, 0, 5);
  EXPECT_THROW(g.decrease_weight(e, 0), Error);
  EXPECT_THROW(g.decrease_weight(e, 6), Error);
  EXPECT_THROW(g.decrease_weight(e + 1, 1), Error);
}

TEST(BipartiteGraph, ParallelEdgesAreDistinct) {
  BipartiteGraph g(1, 1);
  const EdgeId a = g.add_edge(0, 0, 2);
  const EdgeId b = g.add_edge(0, 0, 3);
  EXPECT_NE(a, b);
  EXPECT_EQ(g.degree_left(0), 2);
  EXPECT_EQ(g.node_weight_left(0), 5);
  g.decrease_weight(a, 2);
  EXPECT_EQ(g.degree_left(0), 1);
  EXPECT_EQ(g.alive_edge_count(), 1);
}

TEST(BipartiteGraph, AliveEdgesFilter) {
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 1);
  const EdgeId e1 = g.add_edge(0, 1, 2);
  g.add_edge(1, 0, 3);
  g.decrease_weight(e1, 2);
  const std::vector<EdgeId> alive = g.alive_edges();
  EXPECT_EQ(alive, (std::vector<EdgeId>{0, 2}));
}

TEST(BipartiteGraph, WeightRegularDetection) {
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 3);
  g.add_edge(0, 1, 2);
  g.add_edge(1, 0, 2);
  g.add_edge(1, 1, 3);
  Weight c = 0;
  EXPECT_TRUE(g.is_weight_regular(&c));
  EXPECT_EQ(c, 5);
}

TEST(BipartiteGraph, WeightRegularRejectsUneven) {
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 3);
  g.add_edge(1, 1, 4);
  EXPECT_FALSE(g.is_weight_regular());
}

TEST(BipartiteGraph, WeightRegularStrictVsLoose) {
  // Node weights are 2 everywhere except an isolated right node.
  BipartiteGraph g(1, 2);
  g.add_edge(0, 0, 2);
  EXPECT_FALSE(g.is_weight_regular(nullptr, /*strict_all_nodes=*/true));
  Weight c = 0;
  EXPECT_TRUE(g.is_weight_regular(&c, /*strict_all_nodes=*/false));
  EXPECT_EQ(c, 2);
}

TEST(BipartiteGraph, AdjacencyLists) {
  BipartiteGraph g(2, 3);
  const EdgeId a = g.add_edge(0, 2, 1);
  const EdgeId b = g.add_edge(0, 1, 1);
  EXPECT_EQ(g.edges_of_left(0), (std::vector<EdgeId>{a, b}));
  EXPECT_TRUE(g.edges_of_left(1).empty());
  EXPECT_EQ(g.edges_of_right(2), (std::vector<EdgeId>{a}));
}

TEST(BipartiteGraphProperty, InvariantsHoldUnderRandomMutation) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    RandomGraphConfig config;
    config.max_left = 10;
    config.max_right = 10;
    config.max_edges = 30;
    BipartiteGraph g = random_bipartite(rng, config);
    g.check_invariants();
    // Randomly decrement weights until empty.
    while (!g.empty()) {
      const std::vector<EdgeId> alive = g.alive_edges();
      const EdgeId e = alive[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(alive.size()) - 1))];
      const Weight w = g.edge(e).weight;
      g.decrease_weight(e, rng.uniform_int(1, w));
    }
    g.check_invariants();
    EXPECT_EQ(g.total_weight(), 0);
    EXPECT_EQ(g.max_degree(), 0);
  }
}

}  // namespace
}  // namespace redist
