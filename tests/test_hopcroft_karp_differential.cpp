// HopcroftKarp::solve() against the recursive reference kernels
// (oracle/hopcroft_karp_oracle.hpp): the same matched edge per left node,
// the same changes() log and the same hk.phases / hk.augmenting_paths
// counts, over random simple graphs, multigraphs with parallel and dead
// edges, masks, thresholds, and shrink() sequences on regularized graphs
// shaped like bench/e2e's sparse_giant and dense daemon_mix instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kpbs/regularize.hpp"
#include "matching/hopcroft_karp.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "oracle/hopcroft_karp_oracle.hpp"
#include "workload/random_graphs.hpp"
#include "workload/scenario.hpp"

namespace redist {
namespace {

// Runs the bound solver's solve() under telemetry and checks it against the
// reference for the same edge set. Returns the number of checks (1).
int expect_reference(HopcroftKarp& solver, const BipartiteGraph& g,
                     Weight min_weight, const std::vector<char>& mask,
                     const std::string& what) {
  const oracle::ReferenceMatching want =
      oracle::reference_max_matching(g, min_weight, mask);
  // One registry for every check: the solver caches its counters per
  // registry address, which a fresh registry could reuse.
  static obs::MetricsRegistry registry;
  obs::Counter& phases = registry.counter("hk.phases");
  obs::Counter& paths = registry.counter("hk.augmenting_paths");
  const std::uint64_t phases_before = phases.value();
  const std::uint64_t paths_before = paths.value();
  Matching got;
  {
    const obs::ScopedTelemetry scoped(&registry, nullptr);
    got = solver.solve();
  }
  Matching expected;
  for (NodeId v = 0; v < g.left_count(); ++v) {
    const EdgeId e = want.match_left[static_cast<std::size_t>(v)];
    EXPECT_EQ(solver.matched_edge_of_left(v), e)
        << what << ": left node " << v;
    if (e != kNoEdge) expected.edges.push_back(e);
  }
  EXPECT_EQ(got.edges, expected.edges) << what;
  const auto log = solver.changes();
  EXPECT_EQ(std::vector(log.begin(), log.end()), want.changes) << what;
  EXPECT_EQ(phases.value() - phases_before, want.phases) << what;
  EXPECT_EQ(paths.value() - paths_before, want.augmenting_paths) << what;
  return 1;
}

// A multigraph: m pairs drawn with replacement, so parallel edges are
// common, weights 1-5, and about a fifth of the edges killed.
BipartiteGraph random_multigraph(Rng& rng) {
  const auto n1 = static_cast<NodeId>(rng.uniform_int(1, 30));
  const auto n2 = static_cast<NodeId>(rng.uniform_int(1, 30));
  BipartiteGraph g(n1, n2);
  const auto m = rng.uniform_int(1, 4 * std::max(n1, n2));
  for (std::int64_t i = 0; i < m; ++i) {
    const auto left = static_cast<NodeId>(rng.uniform_int(0, n1 - 1));
    const auto right =
        rng.uniform_int(0, 3) == 0
            ? static_cast<NodeId>(left % n2)  // pile onto a few pairs
            : static_cast<NodeId>(rng.uniform_int(0, n2 - 1));
    g.add_edge(left, right, rng.uniform_int(1, 5));
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (rng.uniform_int(0, 4) == 0) g.decrease_weight(e, g.edge(e).weight);
  }
  return g;
}

TEST(HopcroftKarpDifferential, RandomSparseAndDenseGraphs) {
  Rng rng(2024);
  int checks = 0;
  for (int trial = 0; trial < 300; ++trial) {
    RandomGraphConfig config;
    config.max_left = static_cast<NodeId>(rng.uniform_int(1, 60));
    config.max_right = static_cast<NodeId>(rng.uniform_int(1, 60));
    // From a few edges per node up to complete bipartite graphs.
    config.max_edges = trial % 3 == 0 ? 3 * config.max_left
                                      : config.max_left * config.max_right;
    config.max_weight = 6;
    BipartiteGraph g = random_bipartite(rng, config);
    if (trial % 2 == 1) {
      for (EdgeId e = 0; e < g.edge_count(); ++e) {
        if (rng.uniform_int(0, 9) == 0) g.decrease_weight(e, g.edge(e).weight);
      }
    }
    HopcroftKarp solver(g);
    checks += expect_reference(solver, g, 1, {},
                               "simple trial " + std::to_string(trial));
  }
  EXPECT_EQ(checks, 300);
}

TEST(HopcroftKarpDifferential, ParallelAndDeadEdges) {
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const BipartiteGraph g = random_multigraph(rng);
    HopcroftKarp solver(g);
    expect_reference(solver, g, 1, {},
                     "multigraph trial " + std::to_string(trial));
  }
}

TEST(HopcroftKarpDifferential, MasksAndThresholds) {
  Rng rng(99);
  int checks = 0;
  HopcroftKarp solver;  // one instance, rebound: buffers are reused
  for (int trial = 0; trial < 100; ++trial) {
    const BipartiteGraph g = trial % 2 == 0 ? random_multigraph(rng) : [&] {
      RandomGraphConfig config;
      config.max_weight = 8;
      return random_bipartite(rng, config);
    }();
    std::vector<char> mask(static_cast<std::size_t>(g.edge_count()));
    for (char& keep : mask) {
      keep = static_cast<char>(rng.uniform_int(0, 3) != 0);
    }
    const std::string what = "trial " + std::to_string(trial);
    solver.rebind(g, mask);
    checks += expect_reference(solver, g, 1, mask, what + " mask");
    for (Weight t = 2; t <= 5; ++t) {
      solver.rebind_threshold(g, t);
      checks += expect_reference(solver, g, t, {},
                                 what + " threshold " + std::to_string(t));
    }
  }
  EXPECT_EQ(checks, 500);
}

// The regularized graphs J the peel matches: sparse_giant demands at 1/32
// scale and dense 48 x 48 instances of 1200 pairs, bytes U[1, 1000], k = 8.
std::vector<BipartiteGraph> regularized_shapes() {
  std::vector<BipartiteGraph> out;
  const std::vector<ScenarioSpec> specs = builtin_scenarios(1.0 / 32);
  const auto giant = std::find_if(
      specs.begin(), specs.end(),
      [](const ScenarioSpec& s) { return s.name == "sparse_giant"; });
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    ScenarioSpec spec = *giant;
    spec.seed = seed;
    out.push_back(regularize(materialize_scenario(spec).demand, spec.k).graph);
  }
  constexpr NodeId kNodes = 48;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    Rng rng(seed);
    std::vector<std::int64_t> pairs(static_cast<std::size_t>(kNodes * kNodes));
    std::iota(pairs.begin(), pairs.end(), 0);
    std::shuffle(pairs.begin(), pairs.end(), rng);
    BipartiteGraph demand(kNodes, kNodes);
    for (std::size_t i = 0; i < 1200; ++i) {
      demand.add_edge(static_cast<NodeId>(pairs[i] / kNodes),
                      static_cast<NodeId>(pairs[i] % kNodes),
                      rng.uniform_int(1, 1000));
    }
    out.push_back(regularize(demand, 8).graph);
  }
  return out;
}

// GGP's peel of J: every step takes the solver's perfect matching, peels
// its lightest weight off every matched edge and shrinks away the edges
// that died.
TEST(HopcroftKarpDifferential, GgpPeelOfRegularizedGraphs) {
  int steps = 0;
  int shape = 0;
  for (BipartiteGraph j : regularized_shapes()) {
    HopcroftKarp solver(j);
    for (int step = 0;; ++step) {
      const std::string what =
          "shape " + std::to_string(shape) + " step " + std::to_string(step);
      steps += expect_reference(solver, j, 1, {}, what);
      const Matching m = solver.matching();
      if (m.edges.empty()) break;
      ASSERT_EQ(m.size(), static_cast<std::size_t>(j.left_count())) << what;
      Weight t = j.edge(m.edges.front()).weight;
      for (const EdgeId e : m.edges) t = std::min(t, j.edge(e).weight);
      std::vector<EdgeId> dead;
      for (const EdgeId e : m.edges) {
        j.decrease_weight(e, t);
        if (!j.alive(e)) dead.push_back(e);
      }
      solver.shrink(dead);
    }
    ++shape;
  }
  EXPECT_GT(steps, 100);
}

// OGGP-style shrink() at a threshold: matched edges lose random amounts,
// the ones that fall below the threshold are shrunk away, and the next
// cold solve must equal the reference at that threshold.
TEST(HopcroftKarpDifferential, ShrinkBelowAThreshold) {
  Rng rng(5);
  int shape = 0;
  for (BipartiteGraph j : regularized_shapes()) {
    const Weight threshold = shape % 2 == 0 ? 2 : 40;
    HopcroftKarp solver;
    solver.rebind_threshold(j, threshold);
    for (int round = 0; round < 12; ++round) {
      const std::string what =
          "shape " + std::to_string(shape) + " round " + std::to_string(round);
      expect_reference(solver, j, threshold, {}, what);
      std::vector<EdgeId> fallen;
      for (const EdgeId e : solver.matching().edges) {
        j.decrease_weight(e, rng.uniform_int(1, j.edge(e).weight));
        if (j.edge(e).weight < threshold) fallen.push_back(e);
      }
      solver.shrink(fallen);
    }
    ++shape;
  }
}

}  // namespace
}  // namespace redist
