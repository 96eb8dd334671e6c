#include "matching/matching.hpp"

#include <gtest/gtest.h>

namespace redist {
namespace {

BipartiteGraph square_graph() {
  // 2x2 complete bipartite with distinct weights.
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 1);  // e0
  g.add_edge(0, 1, 2);  // e1
  g.add_edge(1, 0, 3);  // e2
  g.add_edge(1, 1, 4);  // e3
  return g;
}

TEST(Matching, ValidityChecks) {
  const BipartiteGraph g = square_graph();
  EXPECT_TRUE(is_matching(g, Matching{{0, 3}}));
  EXPECT_TRUE(is_matching(g, Matching{{1, 2}}));
  EXPECT_TRUE(is_matching(g, Matching{{}}));
  EXPECT_FALSE(is_matching(g, Matching{{0, 1}}));  // shares left node 0
  EXPECT_FALSE(is_matching(g, Matching{{0, 2}}));  // shares right node 0
  EXPECT_FALSE(is_matching(g, Matching{{7}}));     // bad edge id
}

TEST(Matching, DeadEdgesAreNotMatchable) {
  BipartiteGraph g = square_graph();
  g.decrease_weight(0, 1);
  EXPECT_FALSE(is_matching(g, Matching{{0, 3}}));
}

TEST(Matching, PerfectMatchingChecks) {
  const BipartiteGraph g = square_graph();
  EXPECT_TRUE(is_perfect_matching(g, Matching{{0, 3}}));
  EXPECT_FALSE(is_perfect_matching(g, Matching{{0}}));  // not saturating
  BipartiteGraph uneven(2, 3);
  uneven.add_edge(0, 0, 1);
  uneven.add_edge(1, 1, 1);
  EXPECT_FALSE(is_perfect_matching(uneven, Matching{{0, 1}}));
}

TEST(Matching, MinMaxWeight) {
  const BipartiteGraph g = square_graph();
  const Matching m{{1, 2}};
  EXPECT_EQ(min_weight(g, m), 2);
  EXPECT_EQ(min_weight(g, Matching{}), 0);
}

}  // namespace
}  // namespace redist
