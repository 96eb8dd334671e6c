#include "kpbs/regularize.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "matching/hopcroft_karp.hpp"
#include "workload/random_graphs.hpp"

namespace redist {
namespace {

int real_edges_in(const Regularized& reg, const Matching& m) {
  int count = 0;
  for (EdgeId e : m.edges) {
    count += (reg.origin[static_cast<std::size_t>(e)] != kNoEdge);
  }
  return count;
}

TEST(ClampK, Range) {
  BipartiteGraph g(3, 5);
  g.add_edge(0, 0, 1);
  EXPECT_EQ(clamp_k(g, 0), 1);
  EXPECT_EQ(clamp_k(g, -4), 1);
  EXPECT_EQ(clamp_k(g, 2), 2);
  EXPECT_EQ(clamp_k(g, 3), 3);
  EXPECT_EQ(clamp_k(g, 100), 3);  // min(n1, n2)
}

TEST(Regularize, RejectsEmptyGraph) {
  BipartiteGraph g(2, 2);
  EXPECT_THROW(regularize(g, 1), Error);
}

TEST(Regularize, RejectsWeightsThatOverflow) {
  BipartiteGraph g(2, 2);  // c = INT64_MAX, so c * k overflows
  g.add_edge(0, 0, std::numeric_limits<Weight>::max());
  EXPECT_THROW(regularize(g, 2), Error);
}

TEST(Regularize, CaseOneNoFillerNeeded) {
  // P = 8, k = 2, c = 4 = W(G): case 1 of the paper (k | P, W <= P/k).
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 4);
  g.add_edge(1, 1, 4);
  const Regularized reg = regularize(g, 2);
  EXPECT_EQ(reg.regular_weight, 4);
  EXPECT_EQ(reg.k, 2);
  Weight c = 0;
  EXPECT_TRUE(reg.graph.is_weight_regular(&c));
  EXPECT_EQ(c, 4);
  EXPECT_EQ(reg.graph.left_count(), reg.graph.right_count());
  // sides: |V1|+|V2|-k = 2.
  EXPECT_EQ(reg.graph.left_count(), 2);
}

TEST(Regularize, CaseTwoHeavyVertex) {
  // W(G) = 10 > P/k = 11/2: filler edges must pad P up to k*W = 20.
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 10);
  g.add_edge(1, 1, 1);
  const Regularized reg = regularize(g, 2);
  EXPECT_EQ(reg.regular_weight, 10);
  EXPECT_EQ(reg.graph.total_weight(),
            reg.regular_weight * reg.graph.left_count());
  Weight c = 0;
  EXPECT_TRUE(reg.graph.is_weight_regular(&c));
  EXPECT_EQ(c, 10);
}

TEST(Regularize, CaseTwoNonDivisible) {
  // W <= P/k but k does not divide P: c = ceil(P/k).
  BipartiteGraph g(3, 3);
  g.add_edge(0, 0, 3);
  g.add_edge(1, 1, 2);
  g.add_edge(2, 2, 2);  // P = 7, k = 2 -> c = 4
  const Regularized reg = regularize(g, 2);
  EXPECT_EQ(reg.regular_weight, 4);
  Weight c = 0;
  EXPECT_TRUE(reg.graph.is_weight_regular(&c));
  EXPECT_EQ(c, 4);
}

TEST(Regularize, OriginMapsRealEdgesFaithfully) {
  BipartiteGraph g(2, 3);
  const EdgeId a = g.add_edge(0, 2, 5);
  const EdgeId b = g.add_edge(1, 0, 7);
  const Regularized reg = regularize(g, 2);
  int real = 0;
  for (std::size_t e = 0; e < reg.origin.size(); ++e) {
    const EdgeId orig = reg.origin[e];
    if (orig == kNoEdge) continue;
    ++real;
    const Edge& je = reg.graph.edge(static_cast<EdgeId>(e));
    const Edge& ge = g.edge(orig);
    EXPECT_EQ(je.left, ge.left);
    EXPECT_EQ(je.right, ge.right);
    EXPECT_EQ(je.weight, ge.weight);
    EXPECT_TRUE(orig == a || orig == b);
  }
  EXPECT_EQ(real, 2);
}

TEST(Regularize, PropositionOneExactlyKPrimeEdges) {
  // Any perfect matching of J has at most k real edges (Proposition 1).
  Rng rng(321);
  for (int trial = 0; trial < 30; ++trial) {
    RandomGraphConfig config;
    config.max_left = 9;
    config.max_right = 9;
    config.max_edges = 25;
    const BipartiteGraph g = random_bipartite(rng, config);
    const int k = static_cast<int>(rng.uniform_int(1, 10));
    const Regularized reg = regularize(g, k);
    const Matching m = max_matching(reg.graph);
    ASSERT_TRUE(is_perfect_matching(reg.graph, m))
        << "regularized graph must admit a perfect matching";
    ASSERT_LE(real_edges_in(reg, m), reg.k);
  }
}

TEST(Regularize, RegularityAndSideEquality) {
  Rng rng(654);
  for (int trial = 0; trial < 30; ++trial) {
    RandomGraphConfig config;
    config.max_left = 12;
    config.max_right = 12;
    config.max_edges = 50;
    config.max_weight = 40;
    const BipartiteGraph g = random_bipartite(rng, config);
    const int k = static_cast<int>(rng.uniform_int(1, 12));
    const Regularized reg = regularize(g, k);
    Weight c = 0;
    ASSERT_TRUE(reg.graph.is_weight_regular(&c));
    ASSERT_EQ(c, reg.regular_weight);
    ASSERT_EQ(reg.graph.left_count(), reg.graph.right_count());
    // c is the theoretical max(W, ceil(P/k)).
    const Weight expected =
        std::max(g.max_node_weight(),
                 ceil_div(g.total_weight(), reg.k));
    ASSERT_EQ(c, expected);
    reg.graph.check_invariants();
  }
}

TEST(Regularize, SyntheticEdgesNeverConnectTwoDummies) {
  // Deficit edges must connect an original/filler node with a dummy — never
  // dummy to dummy (paper requirement that keeps Proposition 1 counting).
  Rng rng(987);
  for (int trial = 0; trial < 20; ++trial) {
    RandomGraphConfig config;
    config.max_left = 8;
    config.max_right = 8;
    config.max_edges = 20;
    const BipartiteGraph g = random_bipartite(rng, config);
    const int k = static_cast<int>(rng.uniform_int(1, 8));
    const Regularized reg = regularize(g, k);
    for (std::size_t e = 0; e < reg.origin.size(); ++e) {
      const Edge& edge = reg.graph.edge(static_cast<EdgeId>(e));
      ASSERT_FALSE(reg.is_dummy_left(edge.left) &&
                   reg.is_dummy_right(edge.right))
          << "edge " << e << " connects two dummy nodes";
      if (reg.origin[e] != kNoEdge) {
        // Real edges never touch synthetic nodes at all.
        ASSERT_LT(edge.left, reg.original_left);
        ASSERT_LT(edge.right, reg.original_right);
      }
    }
  }
}

}  // namespace
}  // namespace redist
