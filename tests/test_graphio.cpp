#include "graph/graphio.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"
#include "workload/random_graphs.hpp"

namespace redist {
namespace {

// write_graph followed by read_graph, through an in-memory stream.
BipartiteGraph round_trip(const BipartiteGraph& g) {
  std::stringstream text;
  write_graph(text, g);
  return read_graph(text);
}

TEST(GraphIo, RoundTripPreservesEverything) {
  BipartiteGraph g(3, 2);
  g.add_edge(0, 1, 5);
  g.add_edge(2, 0, 7);
  const BipartiteGraph h = round_trip(g);
  EXPECT_EQ(h.left_count(), 3);
  EXPECT_EQ(h.right_count(), 2);
  EXPECT_EQ(h.alive_edge_count(), 2);
  EXPECT_EQ(h.total_weight(), 12);
  EXPECT_EQ(h.edge(0).left, 0);
  EXPECT_EQ(h.edge(0).right, 1);
  EXPECT_EQ(h.edge(0).weight, 5);
}

TEST(GraphIo, DeadEdgesAreDropped) {
  BipartiteGraph g(1, 1);
  const EdgeId e = g.add_edge(0, 0, 3);
  g.add_edge(0, 0, 4);
  g.decrease_weight(e, 3);
  const BipartiteGraph h = round_trip(g);
  EXPECT_EQ(h.alive_edge_count(), 1);
  EXPECT_EQ(h.total_weight(), 4);
}

TEST(GraphIo, MalformedHeaderThrows) {
  std::istringstream is("not a graph");
  EXPECT_THROW(read_graph(is), Error);
}

TEST(GraphIo, TruncatedEdgeListThrows) {
  std::istringstream is("2 2 3\n0 0 1\n");
  EXPECT_THROW(read_graph(is), Error);
}

TEST(GraphIo, InvalidEdgeEndpointThrows) {
  std::istringstream is("2 2 1\n5 0 1\n");
  EXPECT_THROW(read_graph(is), Error);
}

TEST(GraphIo, DotContainsNodesAndLabels) {
  BipartiteGraph g(1, 2);
  g.add_edge(0, 1, 9);
  const std::string dot = graph_to_dot(g, "Demo");
  EXPECT_NE(dot.find("graph Demo"), std::string::npos);
  EXPECT_NE(dot.find("l0 -- r1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"9\""), std::string::npos);
}

TEST(GraphIoProperty, RandomGraphsRoundTrip) {
  Rng rng(1234);
  for (int trial = 0; trial < 25; ++trial) {
    RandomGraphConfig config;
    config.max_left = 15;
    config.max_right = 15;
    config.max_edges = 60;
    const BipartiteGraph g = random_bipartite(rng, config);
    const BipartiteGraph h = round_trip(g);
    ASSERT_EQ(h.left_count(), g.left_count());
    ASSERT_EQ(h.right_count(), g.right_count());
    ASSERT_EQ(h.alive_edge_count(), g.alive_edge_count());
    ASSERT_EQ(h.total_weight(), g.total_weight());
    ASSERT_EQ(h.max_degree(), g.max_degree());
    ASSERT_EQ(h.max_node_weight(), g.max_node_weight());
  }
}

}  // namespace
}  // namespace redist
