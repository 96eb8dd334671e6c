#include "oracle/hungarian.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "matching/hopcroft_karp.hpp"
#include "oracle/weight_regular.hpp"

namespace redist {
namespace {

Weight total_weight(const BipartiteGraph& g, const Matching& m) {
  Weight w = 0;
  for (EdgeId e : m.edges) w += g.edge(e).weight;
  return w;
}

TEST(Hungarian, PicksHeavierPerfectMatching) {
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 1);
  g.add_edge(1, 1, 1);
  g.add_edge(0, 1, 5);
  g.add_edge(1, 0, 4);
  const Matching m = max_weight_perfect_matching(g);
  EXPECT_TRUE(is_perfect_matching(g, m));
  EXPECT_EQ(total_weight(g, m), 9);
}

TEST(Hungarian, TotalWeightCanBeatBottleneck) {
  // Bottleneck prefers {3, 3} (min 3 > min 1); max-weight prefers {10, 1}.
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 10);
  g.add_edge(1, 1, 1);
  g.add_edge(0, 1, 3);
  g.add_edge(1, 0, 3);
  const Matching m = max_weight_perfect_matching(g);
  EXPECT_EQ(total_weight(g, m), 11);
}

TEST(Hungarian, RequiresEqualSides) {
  BipartiteGraph g(1, 2);
  g.add_edge(0, 0, 1);
  EXPECT_THROW(max_weight_perfect_matching(g), Error);
}

TEST(Hungarian, ThrowsWithoutPerfectMatching) {
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 1);
  g.add_edge(1, 0, 1);
  EXPECT_THROW(max_weight_perfect_matching(g), Error);
}

TEST(Hungarian, ParallelEdgesUseTheHeaviest) {
  BipartiteGraph g(1, 1);
  g.add_edge(0, 0, 2);
  const EdgeId heavy = g.add_edge(0, 0, 7);
  const Matching m = max_weight_perfect_matching(g);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m.edges[0], heavy);
}

TEST(Hungarian, EmptySquareGraphThrows) {
  BipartiteGraph g(2, 2);
  EXPECT_THROW(max_weight_perfect_matching(g), Error);
}

class HungarianRandom : public ::testing::TestWithParam<std::uint64_t> {};

// Exhaustive cross-check on small dense graphs with guaranteed perfect
// matchings.
TEST_P(HungarianRandom, MatchesBruteForceOptimum) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const NodeId n = static_cast<NodeId>(rng.uniform_int(2, 5));
    BipartiteGraph g(n, n);
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        g.add_edge(i, j, rng.uniform_int(1, 50));
      }
    }
    const Matching m = max_weight_perfect_matching(g);
    ASSERT_TRUE(is_perfect_matching(g, m));

    // Brute force over permutations.
    std::vector<NodeId> perm(static_cast<std::size_t>(n));
    for (NodeId i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
    Weight best = 0;
    do {
      Weight w = 0;
      for (NodeId i = 0; i < n; ++i) {
        // Edge (i, perm[i]) has id i*n + perm[i] by construction.
        w += g.edge(i * n + perm[static_cast<std::size_t>(i)]).weight;
      }
      best = std::max(best, w);
    } while (std::next_permutation(perm.begin(), perm.end()));
    ASSERT_EQ(total_weight(g, m), best);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HungarianRandom,
                         ::testing::Values(3, 6, 9, 12, 15));

TEST(Hungarian, WorksOnRegularizedGraphs) {
  // The real use: a strategy for WRGP peeling on weight-regular graphs.
  Rng rng(123);
  const BipartiteGraph g = random_weight_regular(rng, 20, 4, 1, 15);
  const Matching m = max_weight_perfect_matching(g);
  EXPECT_TRUE(is_perfect_matching(g, m));
  // At least as heavy as an arbitrary maximum matching.
  const Matching arb = max_matching(g);
  EXPECT_GE(total_weight(g, m), total_weight(g, arb));
}

}  // namespace
}  // namespace redist
