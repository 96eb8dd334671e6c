// The deferred peel solve_kpbs runs (wrgp_peel_deferred) against the
// per-step composition of the same engine (wrgp_peel driven by a
// PeelingContext's bottleneck_perfect / arbitrary_perfect / before_peel,
// as bench/e2e layers.cpp composes it). The per-step form writes every
// matched edge each step and re-checks each matching in full; the deferred
// form writes an edge only when it leaves the matching. Both must take the
// same steps: the same amounts, the same real edges in the same order, and
// leave J empty.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "kpbs/regularize.hpp"
#include "kpbs/wrgp.hpp"
#include "oracle/bottleneck_oracle.hpp"
#include "workload/random_graphs.hpp"

namespace redist {
namespace {

struct RealStep {
  Weight amount = 0;
  std::vector<EdgeId> real;
  bool operator==(const RealStep&) const = default;
};

// J for `demand` as solve_kpbs builds it: beta-normalized, regularized.
Regularized regularized(const BipartiteGraph& demand, int k, Weight beta) {
  const Weight unit = std::max<Weight>(1, beta);
  BipartiteGraph normalized(demand.left_count(), demand.right_count());
  for (EdgeId e = 0; e < demand.edge_count(); ++e) {
    if (!demand.alive(e)) continue;
    const Edge& edge = demand.edge(e);
    normalized.add_edge(edge.left, edge.right, ceil_div(edge.weight, unit));
  }
  return regularize(normalized, clamp_k(normalized, k));
}

void expect_same_peel(const BipartiteGraph& demand, int k, Weight beta,
                      const std::string& context) {
  for (const Algorithm algo : {Algorithm::kGGP, Algorithm::kOGGP}) {
    const std::string where = context + " " + algorithm_name(algo);
    Regularized reg = regularized(demand, k, beta);
    BipartiteGraph per_step_j = reg.graph;

    std::vector<RealStep> deferred;
    wrgp_peel_deferred(reg.graph, algo, reg.original_left, reg.original_right,
                       [&](Weight amount, std::span<const EdgeId> real) {
                         deferred.push_back(
                             {amount, {real.begin(), real.end()}});
                       });
    std::vector<RealStep> per_step;
    for (const PeelStep& step : oracle::per_step_peel(per_step_j, algo)) {
      RealStep projected{step.amount, {}};
      for (const EdgeId e : step.matching.edges) {
        if (reg.origin[static_cast<std::size_t>(e)] != kNoEdge) {
          projected.real.push_back(e);
        }
      }
      per_step.push_back(std::move(projected));
    }

    ASSERT_EQ(deferred.size(), per_step.size()) << where;
    for (std::size_t s = 0; s < deferred.size(); ++s) {
      ASSERT_EQ(deferred[s], per_step[s]) << where << " step " << s;
    }
    EXPECT_TRUE(reg.graph.empty()) << where;
    EXPECT_TRUE(per_step_j.empty()) << where;
    reg.graph.check_invariants();
  }
}

// Sparse demands name many senders and receivers that carry nothing, so J
// pads isolated nodes with deficit edges; k runs from 1 to min(n1, n2).
TEST(DeferredPeel, SparseWithIsolatedNodes) {
  Rng rng(3217);
  for (int trial = 0; trial < 40; ++trial) {
    RandomGraphConfig config;
    config.max_left = 24;
    config.max_right = 24;
    config.max_edges = 30;
    config.max_weight = static_cast<Weight>(rng.uniform_int(1, 12));
    const BipartiteGraph demand = random_bipartite(rng, config);
    if (demand.empty()) continue;
    const int widest = std::min(demand.left_count(), demand.right_count());
    for (const int k : {1, static_cast<int>(rng.uniform_int(1, widest)),
                        widest}) {
      for (const Weight beta : {Weight{1}, Weight{3}}) {
        expect_same_peel(demand, k, beta,
                         "trial " + std::to_string(trial) + " k " +
                             std::to_string(k) + " beta " +
                             std::to_string(beta));
      }
    }
  }
}

// Dense demands with many distinct weights: cap probes fail, so steps
// rebind and run widest augmenting paths between the deferred ones.
TEST(DeferredPeel, DenseManyWeights) {
  Rng rng(9001);
  for (int trial = 0; trial < 12; ++trial) {
    const auto n = static_cast<NodeId>(rng.uniform_int(4, 14));
    BipartiteGraph demand(n, n);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        if (rng.uniform_int(0, 3) != 0) {
          demand.add_edge(u, v, rng.uniform_int(1, 1000));
        }
      }
    }
    if (demand.empty()) continue;
    for (const int k : {1, static_cast<int>(rng.uniform_int(2, n)), int{n}}) {
      for (const Weight beta : {Weight{1}, Weight{25}}) {
        expect_same_peel(demand, k, beta,
                         "dense trial " + std::to_string(trial) + " k " +
                             std::to_string(k) + " beta " +
                             std::to_string(beta));
      }
    }
  }
}

}  // namespace
}  // namespace redist
