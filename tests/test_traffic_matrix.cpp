#include "graph/traffic_matrix.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace redist {
namespace {

TEST(TrafficMatrix, BasicAccess) {
  TrafficMatrix m(2, 3);
  EXPECT_EQ(m.senders(), 2);
  EXPECT_EQ(m.receivers(), 3);
  EXPECT_EQ(m.at(1, 2), 0);
  m.set(1, 2, 100);
  EXPECT_EQ(m.at(1, 2), 100);
  m.add(1, 2, 50);
  EXPECT_EQ(m.at(1, 2), 150);
  EXPECT_EQ(m.total(), 150);
  EXPECT_EQ(m.nonzero_count(), 1);
}

TEST(TrafficMatrix, RejectsBadInputs) {
  EXPECT_THROW(TrafficMatrix(0, 1), Error);
  TrafficMatrix m(2, 2);
  EXPECT_THROW(m.set(2, 0, 1), Error);
  EXPECT_THROW(m.set(0, 2, 1), Error);
  EXPECT_THROW(m.set(0, 0, -1), Error);
}

TEST(TrafficMatrix, ToGraphSkipsZeros) {
  TrafficMatrix m(2, 2);
  m.set(0, 0, 10);
  m.set(1, 1, 20);
  const BipartiteGraph g = m.to_graph_bytes();
  EXPECT_EQ(g.alive_edge_count(), 2);
  EXPECT_EQ(g.total_weight(), 30);
}

TEST(TrafficMatrix, ToGraphCeilsDurations) {
  TrafficMatrix m(1, 2);
  m.set(0, 0, 1000);
  m.set(0, 1, 1001);
  // 1 time unit transfers 500 bytes -> durations 2 and 3 (ceil).
  const BipartiteGraph g = m.to_graph(500.0);
  EXPECT_EQ(g.edge(0).weight, 2);
  EXPECT_EQ(g.edge(1).weight, 3);
}

TEST(TrafficMatrix, TinyEntriesStillGetUnitWeight) {
  TrafficMatrix m(1, 1);
  m.set(0, 0, 1);
  const BipartiteGraph g = m.to_graph(1e9);
  EXPECT_EQ(g.edge(0).weight, 1);
}

TEST(TrafficMatrix, ToGraphRejectsNonpositiveRate) {
  TrafficMatrix m(1, 1);
  m.set(0, 0, 1);
  EXPECT_THROW(m.to_graph(0.0), Error);
  EXPECT_THROW(m.to_graph(-5.0), Error);
}

TEST(TrafficMatrix, GraphPreservesPairStructure) {
  TrafficMatrix m(3, 3);
  m.set(0, 1, 7);
  m.set(2, 0, 9);
  const BipartiteGraph g = m.to_graph_bytes();
  bool saw01 = false;
  bool saw20 = false;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& edge = g.edge(e);
    if (edge.left == 0 && edge.right == 1 && edge.weight == 7) saw01 = true;
    if (edge.left == 2 && edge.right == 0 && edge.weight == 9) saw20 = true;
  }
  EXPECT_TRUE(saw01);
  EXPECT_TRUE(saw20);
}

TEST(TrafficMatrix, ToGraphBytesIsIntegerExact) {
  // 2^53 + 1 is the first byte count a double cannot hold; the byte graph
  // must carry it (and INT64_MAX) unrounded.
  constexpr Bytes kPastDouble = (Bytes{1} << 53) + 1;
  for (const Bytes bytes : {kPastDouble, std::numeric_limits<Bytes>::max()}) {
    TrafficMatrix m(2, 2);
    m.set(1, 0, bytes);
    const BipartiteGraph g = m.to_graph_bytes();
    ASSERT_EQ(g.edge_count(), 1);
    EXPECT_EQ(g.edge(0).weight, bytes);
  }
}

TEST(TrafficMatrix, ToGraphRejectsDurationsPastWeight) {
  TrafficMatrix m(1, 1);
  m.set(0, 0, std::numeric_limits<Bytes>::max());
  EXPECT_THROW(m.to_graph(0.5), Error);
}

TEST(TrafficMatrix, AddRejectsOverflowAndKeepsTheCell) {
  TrafficMatrix m(1, 1);
  m.add(0, 0, std::numeric_limits<Bytes>::max());
  EXPECT_THROW(m.add(0, 0, 1), Error);
  EXPECT_EQ(m.at(0, 0), std::numeric_limits<Bytes>::max());
}

}  // namespace
}  // namespace redist
