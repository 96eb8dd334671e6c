// The test oracle's two bottleneck algorithms (tests/oracle): the threshold
// search and the paper's Figure 6 must agree with each other and with
// exhaustive search.
#include "oracle/bottleneck_oracle.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "matching/hopcroft_karp.hpp"
#include "workload/random_graphs.hpp"

namespace redist {
namespace {

TEST(Bottleneck, PrefersHeavyPerfectMatching) {
  // Two perfect matchings: {1,1} diag (min 1) and {5,4} anti-diag (min 4).
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 1);
  g.add_edge(1, 1, 1);
  g.add_edge(0, 1, 5);
  g.add_edge(1, 0, 4);
  const Matching m = oracle::bottleneck_perfect_threshold(g);
  EXPECT_TRUE(is_perfect_matching(g, m));
  EXPECT_EQ(min_weight(g, m), 4);
}

TEST(Bottleneck, ForcedLightEdge) {
  // Only one perfect matching exists; its min weight is 1.
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 1);
  g.add_edge(1, 1, 9);
  const Matching m = oracle::bottleneck_perfect_threshold(g);
  EXPECT_EQ(min_weight(g, m), 1);
}

TEST(Bottleneck, PerfectThrowsWhenNoneExists) {
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 1);
  g.add_edge(1, 0, 1);  // right node 1 unreachable
  EXPECT_THROW(oracle::bottleneck_perfect_threshold(g), Error);
}

TEST(Bottleneck, PerfectRequiresEqualSides) {
  BipartiteGraph g(1, 2);
  g.add_edge(0, 0, 1);
  EXPECT_THROW(oracle::bottleneck_perfect_threshold(g), Error);
}

TEST(Bottleneck, MaximalOnEmptyGraph) {
  BipartiteGraph g(2, 2);
  EXPECT_TRUE(oracle::bottleneck_maximal_threshold(g).empty());
  EXPECT_TRUE(oracle::bottleneck_maximal_incremental(g).empty());
}

TEST(Bottleneck, MaximalKeepsMaximumCardinality) {
  // Max matching has 2 edges; a greedy-by-weight pick of the weight-9 edge
  // alone would block both, so the bottleneck must settle for min weight 2.
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 9);
  g.add_edge(0, 1, 2);
  g.add_edge(1, 0, 2);
  const Matching m = oracle::bottleneck_maximal_threshold(g);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(min_weight(g, m), 2);
}

TEST(Bottleneck, IncrementalMatchesFigureSixSemantics) {
  BipartiteGraph g(3, 3);
  g.add_edge(0, 0, 10);
  g.add_edge(1, 1, 8);
  g.add_edge(2, 2, 1);
  g.add_edge(2, 1, 7);
  g.add_edge(1, 2, 6);
  const Matching m = oracle::bottleneck_maximal_incremental(g);
  EXPECT_EQ(m.size(), 3u);
  // Best perfect matching avoiding the weight-1 edge: 10, 7, 6 -> min 6.
  EXPECT_EQ(min_weight(g, m), 6);
}

class BottleneckRandom : public ::testing::TestWithParam<std::uint64_t> {};

// The threshold and incremental (paper Fig. 6) algorithms must agree on the
// optimal bottleneck value and both deliver maximum cardinality.
TEST_P(BottleneckRandom, ThresholdAndIncrementalAgree) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 15; ++trial) {
    RandomGraphConfig config;
    config.max_left = 8;
    config.max_right = 8;
    config.max_edges = 20;
    config.max_weight = 12;
    const BipartiteGraph g = random_bipartite(rng, config);
    const Matching a = oracle::bottleneck_maximal_threshold(g);
    const Matching b = oracle::bottleneck_maximal_incremental(g);
    ASSERT_TRUE(is_matching(g, a));
    ASSERT_TRUE(is_matching(g, b));
    const std::size_t target = max_matching_size(g);
    ASSERT_EQ(a.size(), target);
    ASSERT_EQ(b.size(), target);
    ASSERT_EQ(min_weight(g, a), min_weight(g, b));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BottleneckRandom,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// No matching of maximum cardinality can beat the bottleneck value: verify
// by brute force on tiny graphs.
TEST(Bottleneck, OptimalityAgainstExhaustiveSearch) {
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    RandomGraphConfig config;
    config.max_left = 5;
    config.max_right = 5;
    config.max_edges = 10;
    config.max_weight = 8;
    const BipartiteGraph g = random_bipartite(rng, config);
    const std::size_t target = max_matching_size(g);
    const Matching best = oracle::bottleneck_maximal_threshold(g);

    // Exhaustive: enumerate matchings via bitmask over edges.
    const std::vector<EdgeId> edges = g.alive_edges();
    ASSERT_LE(edges.size(), 20u);
    Weight best_possible = 0;
    for (std::uint32_t bits = 1; bits < (1u << edges.size()); ++bits) {
      Matching m;
      for (std::size_t i = 0; i < edges.size(); ++i) {
        if (bits & (1u << i)) m.edges.push_back(edges[i]);
      }
      if (m.size() != target || !is_matching(g, m)) continue;
      best_possible = std::max(best_possible, min_weight(g, m));
    }
    ASSERT_EQ(min_weight(g, best), best_possible);
  }
}

}  // namespace
}  // namespace redist
