// Hopcroft–Karp maximum-cardinality bipartite matching, O(m * sqrt(n)).
//
// Operates over the alive edges of a BipartiteGraph, optionally restricted by
// an edge mask. The paper's WRGP engine calls this once per peeling step (it
// cites Micali–Vazirani / Alt et al.; Hopcroft–Karp has the same O(m sqrt n)
// bound on bipartite graphs and is the standard practical choice).
//
// The solver is rebindable: one instance can be pointed at successive
// graph/mask pairs, reusing its match/layer buffers instead of reallocating.
// PeelingContext exploits this (plus solve_seeded) to warm-start the
// bottleneck binary search across WRGP peeling steps.
#pragma once

#include <vector>

#include "common/contract_annotations.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"
#include "obs/metrics.hpp"

REDIST_LAYER("matching");

namespace redist {

class HopcroftKarp {
 public:
  /// Creates an unbound solver; rebind() must be called before solving.
  HopcroftKarp() = default;

  /// Binds to a graph. The graph must outlive the solver. `mask` (if
  /// non-empty) must have one entry per edge id; zero entries are excluded.
  explicit HopcroftKarp(const BipartiteGraph& g,
                        std::vector<char> mask = {});

  /// Re-binds to a graph/mask, reusing internal buffers. Equivalent to
  /// constructing a fresh solver (all matching state is reset).
  void rebind(const BipartiteGraph& g, std::vector<char> mask = {});

  /// Re-binds restricting to alive edges of weight >= `min_weight` — the
  /// bottleneck search's subgraph, expressed as an O(1) predicate instead
  /// of an O(m) mask fill per probe. Equivalent to a mask of exactly those
  /// edges: identical edge set, identical matchings.
  void rebind_threshold(const BipartiteGraph& g, Weight min_weight);

  /// Computes a maximum matching from a greedy seed. Deterministic: a given
  /// (graph, mask) pair always yields the same matching.
  REDIST_DETERMINISTIC
  Matching solve();

  /// Computes a maximum matching warm-started from `seed`: seed edges that
  /// are usable (alive, mask-permitted, endpoints free) are pre-matched and
  /// only the remaining deficit is augmented. The matching *size* always
  /// equals solve()'s; the edge set may differ.
  REDIST_DETERMINISTIC
  Matching solve_seeded(const Matching& seed);

  /// Matched edge of a left/right node after solve(), or kNoEdge.
  EdgeId matched_edge_of_left(NodeId v) const {
    return match_left_[static_cast<std::size_t>(v)];
  }
  EdgeId matched_edge_of_right(NodeId v) const {
    return match_right_[static_cast<std::size_t>(v)];
  }

 private:
  void reset(const BipartiteGraph& g);
  Matching augment_to_maximum();
  bool bfs_layers();
  /// The peeling inner loop: every probe of the bottleneck binary search
  /// augments through here, so it must stay allocation-free (`noalloc`
  /// analyzer rule). A probe's remaining allocations are per phase (the
  /// BFS queue) and per solve (the returned Matching).
  REDIST_NOALLOC
  bool dfs_augment(NodeId left);
  REDIST_NOALLOC
  bool edge_usable(EdgeId e) const;

  const BipartiteGraph* g_ = nullptr;
  // Telemetry handles, cached per installed registry: the solver sits in the
  // innermost loops, so it pays one pointer compare per solve instead of a
  // registry lookup (and nothing at all when telemetry is disabled).
  obs::MetricsRegistry* metrics_src_ = nullptr;
  obs::Counter* phases_counter_ = nullptr;
  obs::Counter* paths_counter_ = nullptr;
  std::vector<char> mask_;           // edge mask (empty = no restriction)
  Weight min_weight_ = 0;            // threshold restriction (0 = off)
  std::vector<EdgeId> match_left_;   // left node -> matched edge id
  std::vector<EdgeId> match_right_;  // right node -> matched edge id
  std::vector<int> dist_;            // BFS layer per left node
};

/// One-shot helper: maximum matching of alive edges (optionally masked).
REDIST_DETERMINISTIC
Matching max_matching(const BipartiteGraph& g, std::vector<char> mask = {});

/// One-shot helper: size of the maximum matching.
REDIST_DETERMINISTIC
std::size_t max_matching_size(const BipartiteGraph& g,
                              std::vector<char> mask = {});

}  // namespace redist
