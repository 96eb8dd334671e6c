#include "matching/hopcroft_karp.hpp"

#include <gtest/gtest.h>

#include <pthread.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "oracle/weight_regular.hpp"
#include "workload/random_graphs.hpp"

namespace redist {
namespace {

// Exponential-time reference: maximum matching size by edge subset search.
std::size_t brute_force_max_matching(const BipartiteGraph& g,
                                     const std::vector<EdgeId>& edges,
                                     std::size_t from,
                                     std::vector<char>& left_used,
                                     std::vector<char>& right_used) {
  std::size_t best = 0;
  for (std::size_t i = from; i < edges.size(); ++i) {
    const Edge& e = g.edge(edges[i]);
    const auto l = static_cast<std::size_t>(e.left);
    const auto r = static_cast<std::size_t>(e.right);
    if (left_used[l] || right_used[r]) continue;
    left_used[l] = right_used[r] = 1;
    best = std::max(best, 1 + brute_force_max_matching(g, edges, i + 1,
                                                       left_used, right_used));
    left_used[l] = right_used[r] = 0;
  }
  return best;
}

std::vector<EdgeId> ids(std::span<const EdgeId> edges) {
  return {edges.begin(), edges.end()};
}

std::size_t brute_force_max_matching(const BipartiteGraph& g) {
  const std::vector<EdgeId> edges = g.alive_edges();
  std::vector<char> lu(static_cast<std::size_t>(g.left_count()), 0);
  std::vector<char> ru(static_cast<std::size_t>(g.right_count()), 0);
  return brute_force_max_matching(g, edges, 0, lu, ru);
}

TEST(HopcroftKarp, EmptyGraph) {
  BipartiteGraph g(3, 3);
  EXPECT_EQ(max_matching(g).size(), 0u);
}

TEST(HopcroftKarp, PerfectOnCompleteBipartite) {
  BipartiteGraph g(4, 4);
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId j = 0; j < 4; ++j) g.add_edge(i, j, 1);
  }
  const Matching m = max_matching(g);
  EXPECT_TRUE(is_perfect_matching(g, m));
}

TEST(HopcroftKarp, AugmentingPathIsRequired) {
  // Greedy taking (0,0) first forces an augmenting path to reach size 2.
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 1);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 0, 1);
  const Matching m = max_matching(g);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(is_matching(g, m));
}

TEST(HopcroftKarp, StarGraphMatchesOne) {
  BipartiteGraph g(1, 5);
  for (NodeId j = 0; j < 5; ++j) g.add_edge(0, j, 1);
  EXPECT_EQ(max_matching(g).size(), 1u);
}

TEST(HopcroftKarp, RespectsMask) {
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 1);
  g.add_edge(1, 1, 1);
  std::vector<char> mask{1, 0};
  const Matching m = max_matching(g, mask);
  EXPECT_EQ(m.edges, (std::vector<EdgeId>{0}));
}

TEST(HopcroftKarp, MaskSizeMismatchThrows) {
  BipartiteGraph g(1, 1);
  g.add_edge(0, 0, 1);
  EXPECT_THROW(HopcroftKarp(g, std::vector<char>{1, 1}), Error);
}

TEST(HopcroftKarp, IgnoresDeadEdges) {
  BipartiteGraph g(1, 1);
  const EdgeId e = g.add_edge(0, 0, 1);
  g.decrease_weight(e, 1);
  EXPECT_EQ(max_matching(g).size(), 0u);
}

TEST(HopcroftKarp, MatchedEdgeAccessors) {
  BipartiteGraph g(2, 2);
  g.add_edge(0, 1, 1);
  HopcroftKarp solver(g);
  const Matching m = solver.solve();
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(solver.matched_edge_of_left(0), m.edges[0]);
  EXPECT_EQ(solver.matched_edge_of_right(1), m.edges[0]);
  EXPECT_EQ(solver.matched_edge_of_left(1), kNoEdge);
  EXPECT_EQ(solver.matched_edge_of_right(0), kNoEdge);
}

// A rebind snapshots the usable edges; weight changes after it are not
// seen until the next rebind, which is why callers that mutate the graph
// must rebind before solving again.
TEST(HopcroftKarp, RebindSnapshotsUsableEdges) {
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 1);
  const EdgeId heavy01 = g.add_edge(0, 1, 2);
  const EdgeId heavy10 = g.add_edge(1, 0, 2);
  g.add_edge(1, 1, 1);
  HopcroftKarp solver;
  solver.rebind_threshold(g, 2);
  g.decrease_weight(heavy01, 1);  // drops below the threshold
  EXPECT_EQ(solver.solve().edges, (std::vector<EdgeId>{heavy01, heavy10}));
  solver.rebind_threshold(g, 2);
  EXPECT_EQ(solver.solve().edges, (std::vector<EdgeId>{heavy10}));

  std::vector<char> mask{1, 1, 1, 1};
  solver.rebind(g, mask);
  mask.assign(mask.size(), 0);  // the solver kept its own copy
  EXPECT_EQ(solver.solve().size(), 2u);
}

class HopcroftKarpRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HopcroftKarpRandom, MatchesBruteForceOptimum) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    RandomGraphConfig config;
    config.max_left = 7;
    config.max_right = 7;
    config.max_edges = 14;
    const BipartiteGraph g = random_bipartite(rng, config);
    const Matching m = max_matching(g);
    ASSERT_TRUE(is_matching(g, m));
    ASSERT_EQ(m.size(), brute_force_max_matching(g));
  }
}

// The repair is maximum whatever its seed: a kept seed edge may block the
// optimum, and the augmenting searches must route around it.
TEST_P(HopcroftKarpRandom, SeededRepairIsMaximum) {
  Rng rng(GetParam() + 100);
  for (int trial = 0; trial < 30; ++trial) {
    RandomGraphConfig config;
    config.max_left = 7;
    config.max_right = 7;
    config.max_edges = 14;
    const BipartiteGraph g = random_bipartite(rng, config);
    Matching seed;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      if (rng.uniform_int(0, 1) == 0) seed.edges.push_back(e);
    }
    std::shuffle(seed.edges.begin(), seed.edges.end(), rng);
    HopcroftKarp solver(g);
    const Matching m = solver.solve_seeded(seed);
    ASSERT_TRUE(is_matching(g, m));
    ASSERT_EQ(m.size(), brute_force_max_matching(g));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HopcroftKarpRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// FNV-1a over edge ids: a compact fingerprint of which edges a run chose,
// and in which order.
void fnv_mix(std::uint64_t& h, std::int64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= static_cast<std::uint64_t>(value >> (8 * byte)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
}

void fnv_mix(std::uint64_t& h, const Matching& m) {
  fnv_mix(h, static_cast<std::int64_t>(m.size()));
  for (EdgeId e : m.edges) fnv_mix(h, e);
}

// Runs one solver through every entry point on a seeded random graph with
// some edges killed, and fingerprints the matchings it returns: `cold`
// over solve(), `seeded` over solve_seeded() and the right-side lookups
// after it.
struct PinnedDigests {
  std::uint64_t cold = 0xcbf29ce484222325ULL;
  std::uint64_t seeded = 0xcbf29ce484222325ULL;
};

PinnedDigests pinned_digests(std::uint64_t seed) {
  Rng rng(seed);
  RandomGraphConfig config;
  config.max_left = 40;
  config.max_right = 40;
  config.max_edges = 240;
  config.max_weight = 6;
  BipartiteGraph g = random_bipartite(rng, config);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (rng.uniform_int(0, 9) == 0) g.decrease_weight(e, g.edge(e).weight);
  }
  Matching seed_matching;
  for (EdgeId e = 0; e < g.edge_count(); e += 3) {
    seed_matching.edges.push_back(e);
  }
  std::vector<char> mask(static_cast<std::size_t>(g.edge_count()));
  for (std::size_t e = 0; e < mask.size(); ++e) mask[e] = e % 4 != 1;

  PinnedDigests d;
  HopcroftKarp solver(g);
  fnv_mix(d.cold, solver.solve());
  solver.rebind(g);
  fnv_mix(d.seeded, solver.solve_seeded(seed_matching));
  for (Weight threshold = 2; threshold <= 4; ++threshold) {
    solver.rebind_threshold(g, threshold);
    fnv_mix(d.cold, solver.solve());
    solver.rebind_threshold(g, threshold);
    fnv_mix(d.seeded, solver.solve_seeded(seed_matching));
  }
  solver.rebind(g, mask);
  fnv_mix(d.cold, solver.solve());
  solver.rebind(g, mask);
  fnv_mix(d.seeded, solver.solve_seeded(seed_matching));
  for (NodeId v = 0; v < g.right_count(); ++v) {
    fnv_mix(d.seeded, solver.matched_edge_of_right(v));
  }
  return d;
}

// Pins the exact edge ids Hopcroft–Karp returns, not just the matching
// size. GGP and OGGP's first probe run solve(), so its digests pin their
// matchings; OGGP's later probes and the oracle's Fig. 6 search run the
// solve_seeded() repair, pinned separately.
TEST(HopcroftKarp, PinnedMatchings) {
  const std::vector<std::uint64_t> cold = {
      0x3a7f5a471f3911f6ULL, 0xcb0d6fc92a706885ULL, 0xcfb4429785866594ULL,
      0x694537c67a63d019ULL, 0x8edb7a24765b433bULL, 0xf4dd36d54a4593aaULL,
      0x1e0c32af23338fb1ULL, 0xe3c6cfa6add14610ULL, 0xab8a047d3f67e0a4ULL,
      0x3f538f541f5d7ebdULL, 0xadf78d9d964d7d0dULL, 0x0a8b299291f7a717ULL,
      0x1a793481b1d64da9ULL, 0xf6d1ca55248197b4ULL, 0x6b20ae5cf3d1918fULL,
      0x661c50b629b7e4a4ULL, 0x931e000ac47399f3ULL, 0x28e22a4179dc4ad9ULL,
      0xb6b8c7cbf67d6997ULL, 0x10b75da5dafb37cbULL,
  };
  const std::vector<std::uint64_t> seeded = {
      0x996256f8753732e4ULL, 0x12d99f45da92295dULL, 0x3d2211bdf9792d14ULL,
      0x9c63668c02b84700ULL, 0x73ab44cb0ee3b9b0ULL, 0xd74c9e7be9d1abf4ULL,
      0x93885ecb9303b589ULL, 0xd151e66725e343fbULL, 0x6e83899a23f5b5d4ULL,
      0x889e2511e9002c10ULL, 0x3afd0d698cee96f8ULL, 0x1233a40415e88e42ULL,
      0x213f98a0eb891ab8ULL, 0x1d225b595635e0d9ULL, 0xa9ad9c8a93cc3eafULL,
      0x0aa348873b763561ULL, 0xf6e8bb4bb038d13bULL, 0x134824dd9c9c1d21ULL,
      0xa196bf1af9136711ULL, 0x6b1080ddcd636385ULL,
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const PinnedDigests d = pinned_digests(seed);
    EXPECT_EQ(d.cold, cold[seed - 1])
        << "seed " << seed << " solve() digest 0x" << std::hex << d.cold;
    EXPECT_EQ(d.seeded, seeded[seed - 1])
        << "seed " << seed << " solve_seeded() digest 0x" << std::hex
        << d.seeded;
  }
}

// shrink() follows the snapshot as weights fall. GGP's use of it: once some
// edges of a rebind() die, dropping their arcs leaves the snapshot a fresh
// rebind builds, so every later solve() returns the same edge ids. Rounds
// mimic a GGP peel: solve, kill part of the matching, lower the rest.
TEST(HopcroftKarp, DropDeadMatchesRebind) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    RandomGraphConfig config;
    config.max_left = 40;
    config.max_right = 40;
    config.max_edges = 240;
    config.max_weight = 6;
    BipartiteGraph g = random_bipartite(rng, config);
    std::vector<char> mask;  // odd seeds bind with a mask
    if (seed % 2 == 1) {
      mask.resize(static_cast<std::size_t>(g.edge_count()));
      for (std::size_t e = 0; e < mask.size(); ++e) mask[e] = e % 5 != 2;
    }
    HopcroftKarp kept;
    kept.rebind(g, mask);
    Matching m = kept.solve();
    for (int round = 0; round < 8 && !m.edges.empty(); ++round) {
      std::vector<EdgeId> dead;
      for (EdgeId e : m.edges) {
        const Weight w = g.edge(e).weight;
        if (rng.uniform_int(0, 2) == 0) {
          g.decrease_weight(e, w);
          dead.push_back(e);
        } else if (w > 1) {
          g.decrease_weight(e, 1);
        }
      }
      kept.shrink(dead);
      HopcroftKarp fresh;
      fresh.rebind(g, mask);
      const Matching expected = fresh.solve();
      m = kept.solve();
      ASSERT_EQ(m.edges, expected.edges)
          << "seed " << seed << " round " << round;
    }
  }
}

// OGGP's use of shrink(): the snapshot at threshold T follows a peel that
// lowers matched edges, dropping those that fell below T and keeping the
// rest of the matching. After every shrink, solve() equals a fresh
// rebind_threshold's at T, and complete() equals the fresh bind's
// solve_seeded() seeded with the kept matching, then its weight-T edges.
TEST(HopcroftKarp, ShrinkMatchesRebindThreshold) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    RandomGraphConfig config;
    config.max_left = 40;
    config.max_right = 40;
    config.max_edges = 240;
    config.max_weight = 9;
    BipartiteGraph g = random_bipartite(rng, config);
    const auto threshold = static_cast<Weight>(rng.uniform_int(1, 4));
    HopcroftKarp kept;
    kept.rebind_threshold(g, threshold);
    Matching m = kept.solve();
    for (int round = 0; round < 8 && !m.edges.empty(); ++round) {
      std::vector<EdgeId> fallen;
      for (EdgeId e : m.edges) {
        g.decrease_weight(e, rng.uniform_int(1, g.edge(e).weight));
        if (g.edge(e).weight < threshold) fallen.push_back(e);
      }
      kept.shrink(fallen);
      HopcroftKarp fresh;
      fresh.rebind_threshold(g, threshold);
      Matching expected;
      if (round % 2 == 0) {
        expected = fresh.solve();
        m = kept.solve();
      } else {
        Matching seed_matching = kept.matching();
        for (EdgeId e : fresh.threshold_edges()) {
          seed_matching.edges.push_back(e);
        }
        std::vector<NodeId> free_left;
        for (NodeId v = 0; v < g.left_count(); ++v) {
          if (kept.matched_edge_of_left(v) == kNoEdge) free_left.push_back(v);
        }
        expected = fresh.solve_seeded(seed_matching);
        EXPECT_EQ(kept.complete(free_left), expected.size());
        m = kept.matching();
      }
      ASSERT_EQ(m.edges, expected.edges)
          << "seed " << seed << " round " << round;
    }
  }
}

// The bind pass collects the usable edges weighing exactly the threshold,
// the edges an OGGP step at that threshold would kill.
TEST(HopcroftKarp, ThresholdEdgesAreTheUsableEdgesAtTheThreshold) {
  BipartiteGraph g(3, 3);
  g.add_edge(0, 0, 3);
  g.add_edge(0, 1, 5);
  const EdgeId dead = g.add_edge(1, 1, 3);
  g.add_edge(2, 2, 3);
  g.add_edge(1, 2, 2);
  g.decrease_weight(dead, 3);
  HopcroftKarp solver;
  solver.rebind_threshold(g, 3);
  EXPECT_EQ(ids(solver.threshold_edges()), (std::vector<EdgeId>{0, 3}));
  solver.rebind_threshold(g, 4);
  EXPECT_EQ(ids(solver.threshold_edges()), std::vector<EdgeId>{});
  solver.rebind(g, {1, 1, 1, 1, 0});
  EXPECT_EQ(ids(solver.threshold_edges()), std::vector<EdgeId>{});
}

// shrink() takes only snapshot edges that fell below the threshold: an
// edge still above it or one the snapshot never held is a caller bug.
TEST(HopcroftKarp, DropDeadRejectsAliveEdgesAndThresholdBinds) {
  BipartiteGraph g(2, 2);
  const EdgeId light = g.add_edge(0, 0, 1);
  const EdgeId heavy = g.add_edge(1, 1, 3);
  HopcroftKarp solver(g);
  EXPECT_THROW(solver.shrink(std::vector<EdgeId>{light}), Error);
  solver.rebind_threshold(g, 2);
  g.decrease_weight(light, 1);
  EXPECT_THROW(solver.shrink(std::vector<EdgeId>{light}), Error);
  EXPECT_THROW(solver.shrink(std::vector<EdgeId>{heavy}), Error);
  HopcroftKarp unbound;
  EXPECT_THROW(unbound.shrink({}), Error);
}

// A chain whose greedy seed takes (i, i+1) for every i < n-1 leaves one
// augmenting path through all n left nodes. The search follows it on a
// 256 KiB stack: one recursion frame per path node would overflow it
// whatever the process's stack limit is.
TEST(HopcroftKarp, LongAugmentingPathNeedsNoDeepStack) {
  constexpr NodeId kNodes = 20000;
  BipartiteGraph chain(kNodes, kNodes);
  for (NodeId i = 0; i + 1 < kNodes; ++i) chain.add_edge(i, i + 1, 1);
  for (NodeId i = 0; i < kNodes; ++i) chain.add_edge(i, i, 1);
  struct Run {
    const BipartiteGraph* g;
    Matching m;
  } run{&chain, {}};
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, 256 * 1024), 0);
  pthread_t thread;
  ASSERT_EQ(pthread_create(
                &thread, &attr,
                [](void* arg) -> void* {
                  auto* r = static_cast<Run*>(arg);
                  r->m = max_matching(*r->g);
                  return nullptr;
                },
                &run),
            0);
  ASSERT_EQ(pthread_join(thread, nullptr), 0);
  pthread_attr_destroy(&attr);
  EXPECT_TRUE(is_perfect_matching(chain, run.m));
}

TEST(HopcroftKarp, LargeBipartiteRegularHasPerfectMatching) {
  Rng rng(77);
  const BipartiteGraph g = random_weight_regular(rng, 64, 5, 1, 9);
  const Matching m = max_matching(g);
  EXPECT_TRUE(is_perfect_matching(g, m));
}

}  // namespace
}  // namespace redist
