#include "kpbs/wrgp.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "matching/hungarian.hpp"
#include "oracle/bottleneck_oracle.hpp"
#include "workload/random_graphs.hpp"

namespace redist {
namespace {

TEST(Wrgp, RejectsUnequalSides) {
  BipartiteGraph g(1, 2);
  g.add_edge(0, 0, 1);
  EXPECT_THROW(wrgp_peel(g, oracle::arbitrary_perfect_matching), Error);
}

TEST(Wrgp, RejectsIrregularGraph) {
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 3);
  g.add_edge(1, 1, 4);
  EXPECT_THROW(wrgp_peel(g, oracle::arbitrary_perfect_matching), Error);
}

TEST(Wrgp, EmptyGraphPeelsToNothing) {
  BipartiteGraph g(0, 0);
  EXPECT_TRUE(wrgp_peel(g, oracle::arbitrary_perfect_matching).empty());
}

TEST(Wrgp, SinglePermutationPeelsInOneStep) {
  BipartiteGraph g(3, 3);
  g.add_edge(0, 1, 5);
  g.add_edge(1, 2, 5);
  g.add_edge(2, 0, 5);
  const auto steps = wrgp_peel(g, oracle::arbitrary_perfect_matching);
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0].amount, 5);
  EXPECT_EQ(steps[0].matching.size(), 3u);
  EXPECT_TRUE(g.empty());
}

TEST(Wrgp, PaperFigureFourShape) {
  // Two overlaid permutations with different weights peel in two steps of
  // the two permutation weights (order may vary by strategy).
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 3);
  g.add_edge(1, 1, 3);
  g.add_edge(0, 1, 7);
  g.add_edge(1, 0, 7);
  const auto steps = wrgp_peel(g, oracle::arbitrary_perfect_matching);
  ASSERT_EQ(steps.size(), 2u);
  Weight total = 0;
  for (const auto& s : steps) total += s.amount;
  EXPECT_EQ(total, 10);  // regular weight c = 10
  EXPECT_TRUE(g.empty());
}

TEST(Wrgp, PreemptionSplitsUnevenEdges) {
  // c = 8 everywhere but the edges within a perfect matching differ
  // (5 with 3's partner): the 5-edges must be preempted across steps.
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 5);
  g.add_edge(0, 1, 3);
  g.add_edge(1, 0, 3);
  g.add_edge(1, 1, 5);
  const auto steps = wrgp_peel(g, oracle::arbitrary_perfect_matching);
  EXPECT_TRUE(g.empty());
  Weight total = 0;
  for (const auto& s : steps) total += s.amount;
  EXPECT_EQ(total, 8);
  // The diagonal matching {5,5} and anti-diagonal {3,3} need two steps;
  // a mixed matching {5,3} forces a third. Either way 2 <= steps <= 3.
  EXPECT_GE(steps.size(), 2u);
  EXPECT_LE(steps.size(), 3u);
}

class WrgpRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WrgpRandom, PeelsRegularGraphsCompletely) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const NodeId n = static_cast<NodeId>(rng.uniform_int(2, 12));
    const int layers = static_cast<int>(rng.uniform_int(1, 6));
    BipartiteGraph g = random_weight_regular(rng, n, layers, 1, 9);
    Weight c = 0;
    ASSERT_TRUE(g.is_weight_regular(&c));
    const EdgeId m_before = g.alive_edge_count();

    const auto steps = wrgp_peel(g, oracle::arbitrary_perfect_matching);
    EXPECT_TRUE(g.empty());
    // Step amounts sum to the regular weight (each node busy every step).
    Weight total = 0;
    for (const auto& s : steps) {
      total += s.amount;
      EXPECT_GT(s.amount, 0);
      EXPECT_EQ(s.matching.size(), static_cast<std::size_t>(n));
    }
    EXPECT_EQ(total, c);
    // At most one step per edge (each step kills at least one edge).
    EXPECT_LE(steps.size(), static_cast<std::size_t>(m_before));
  }
}

TEST_P(WrgpRandom, BottleneckStrategyNeverMoreStepsOnPermutationStacks) {
  // On stacked permutations, bottleneck matching recovers the layer
  // structure; arbitrary matchings may need more steps.
  Rng rng(GetParam() ^ 0xABCD);
  for (int trial = 0; trial < 5; ++trial) {
    const NodeId n = static_cast<NodeId>(rng.uniform_int(3, 10));
    BipartiteGraph g1 = random_weight_regular(rng, n, 3, 1, 20);
    BipartiteGraph g2 = g1;  // deep copy
    const auto arbitrary = wrgp_peel(g1, oracle::arbitrary_perfect_matching);
    const auto bottleneck = wrgp_peel(g2, oracle::bottleneck_perfect_matching);
    Weight ta = 0;
    Weight tb = 0;
    for (const auto& s : arbitrary) ta += s.amount;
    for (const auto& s : bottleneck) tb += s.amount;
    EXPECT_EQ(ta, tb);  // both must sum to c
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WrgpRandom, ::testing::Values(3, 5, 8, 13));

TEST(Wrgp, AllThreeStrategiesPeelTheSameRegularGraph) {
  Rng rng(77);
  const BipartiteGraph base = random_weight_regular(rng, 8, 4, 1, 12);
  Weight c = 0;
  ASSERT_TRUE(base.is_weight_regular(&c));
  for (const PerfectMatchingStrategy& strategy :
       {PerfectMatchingStrategy(oracle::arbitrary_perfect_matching),
        PerfectMatchingStrategy(oracle::bottleneck_perfect_matching),
        PerfectMatchingStrategy(max_weight_perfect_matching)}) {
    BipartiteGraph g = base;
    const auto steps = wrgp_peel(g, strategy);
    EXPECT_TRUE(g.empty());
    Weight total = 0;
    for (const auto& s : steps) total += s.amount;
    EXPECT_EQ(total, c);  // transmission is strategy-independent
  }
}

}  // namespace
}  // namespace redist
