// Hopcroft–Karp maximum-cardinality bipartite matching, O(m * sqrt(n)).
//
// Operates over the alive edges of a BipartiteGraph, optionally restricted by
// an edge mask. The paper's WRGP engine calls this once per peeling step (it
// cites Micali–Vazirani / Alt et al.; Hopcroft–Karp has the same O(m sqrt n)
// bound on bipartite graphs and is the standard practical choice).
//
// The solver is rebindable: one instance can be pointed at successive
// graph/mask pairs, reusing its buffers instead of reallocating.
// PeelingContext keeps one instance through a WRGP peel, shrinking its
// snapshot between steps. solve() is the cold run (greedy seed, then
// phases); GGP and OGGP's first probe use it. solve_seeded() is the repair
// that OGGP's later probes and the test oracle's Fig. 6 search use: it
// keeps a given partial matching and completes it with one breadth-first
// augmenting search per free left node.
//
// A rebind snapshots the usable edge set (alive, at or above the threshold,
// permitted by the mask) into a flat per-left-node arc list, kept in each
// node's adjacency order, so the BFS and DFS walk contiguous arrays and
// never see an unusable edge. The snapshot is not refreshed: a caller that
// changes the graph's weights must rebind before solving again, or name
// the edges that crossed the threshold to shrink().
#pragma once

#include <cstdint>
#include <span>
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
                        const std::vector<char>& mask = {});

  /// Re-binds to a graph/mask, reusing internal buffers. Equivalent to
  /// constructing a fresh solver (all matching state is reset). Snapshots
  /// the usable edges: later weight changes are not seen until the next
  /// rebind.
  void rebind(const BipartiteGraph& g, const std::vector<char>& mask = {});

  /// Re-binds restricting to alive edges of weight >= `min_weight` — the
  /// bottleneck search's subgraph, without the caller filling an O(m) mask
  /// per probe. Equivalent to a mask of exactly those edges: identical edge
  /// set, identical matchings. Snapshots like rebind().
  void rebind_threshold(const BipartiteGraph& g, Weight min_weight);

  /// The usable edges of the last bind that weigh exactly its threshold
  /// (1 for rebind()), ascending, as shrink() keeps them.
  std::span<const EdgeId> threshold_edges() const {
    return {threshold_ids_.data(), threshold_count_};
  }

  /// Resets the matching, drops the arcs of the snapshot edges `fallen`
  /// below the threshold and lists the ones `joined` on it (ascending). If
  /// weights only fell since the bind and the lists name every such edge,
  /// the result equals a fresh bind (GGP passes only the dead edges).
  REDIST_NOALLOC
  void shrink(const std::vector<EdgeId>& fallen,
              const std::vector<EdgeId>& joined);

  /// Computes a maximum matching from a greedy seed. Deterministic: a given
  /// (graph, mask) pair always yields the same matching.
  REDIST_DETERMINISTIC
  Matching solve();

  /// Repairs `seed` into a maximum matching: seed edges that are usable
  /// (alive, mask-permitted, endpoints still free) are taken in order, then
  /// each free left node, in id order, gets one breadth-first augmenting
  /// search that stops at the first free right node. By Berge's lemma a
  /// node with no augmenting path never gains one later, so one pass is
  /// maximum: the *size* always equals solve()'s, the edge set may differ.
  /// Counts as one `hk.phases`.
  REDIST_DETERMINISTIC
  Matching solve_seeded(const Matching& seed);

  /// Matched edge of a left/right node after solve(), or kNoEdge.
  EdgeId matched_edge_of_left(NodeId v) const {
    return match_left_[static_cast<std::size_t>(v)];
  }
  EdgeId matched_edge_of_right(NodeId v) const {
    const NodeId mate = mate_of_right_[static_cast<std::size_t>(v)];
    return mate == kNoNode ? kNoEdge
                           : match_left_[static_cast<std::size_t>(mate)];
  }

 private:
  /// A usable edge as the kernel walks it: id plus right endpoint.
  struct Arc {
    EdgeId edge;
    NodeId right;
  };

  void bind(const BipartiteGraph& g, Weight min_weight,
            const std::vector<char>& mask);
  void match(NodeId left, EdgeId e, NodeId right) {
    match_left_[static_cast<std::size_t>(left)] = e;
    mate_of_right_[static_cast<std::size_t>(right)] = left;
  }
  void refresh_counters();
  Matching matched() const;
  Matching augment_to_maximum();
  bool bfs_layers();
  /// solve_seeded's pass over the free left nodes; returns the number of
  /// augmenting paths applied. Every later probe of an OGGP peel runs it,
  /// so it allocates nothing (`noalloc` analyzer rule).
  REDIST_NOALLOC
  std::uint64_t repair();
  /// The GGP peel and OGGP's first probe augment through here, so it must
  /// stay allocation-free (`noalloc` analyzer rule). The only allocation
  /// left in a probe is the Matching each solve returns; rebinds reuse the
  /// snapshot and queue buffers.
  REDIST_NOALLOC
  bool dfs_augment(NodeId left);

  const BipartiteGraph* g_ = nullptr;
  // Telemetry handles, cached per installed registry: the solver sits in the
  // innermost loops, so it pays one pointer compare per solve instead of a
  // registry lookup (and nothing at all when telemetry is disabled).
  obs::MetricsRegistry* metrics_src_ = nullptr;
  obs::Counter* phases_counter_ = nullptr;
  obs::Counter* paths_counter_ = nullptr;
  Weight min_weight_ = 1;               // threshold of the last bind
  std::vector<char> usable_;            // edge id -> usable in the snapshot
  std::vector<EdgeId> usable_ids_;      // usable ids ascending; solve() prunes
  std::vector<EdgeId> threshold_ids_;   // one slot per edge: merge in place
  std::size_t threshold_count_ = 0;     // ids weighing min_weight_ in front
  std::vector<std::size_t> arc_begin_;  // left node -> first arc
  std::vector<std::size_t> arc_end_;    // left node -> one past its last arc
  std::vector<Arc> arcs_;               // usable edges, grouped by left node
  std::vector<EdgeId> match_left_;      // left node -> matched edge id
  std::vector<NodeId> mate_of_right_;   // right node -> matched left node
  // BFS layer per left node in solve(); in repair(), the stamp of the
  // search that reached it, or kInf once a failed search proved it can
  // never reach a free right node.
  std::vector<int> dist_;
  std::vector<NodeId> queue_;           // BFS queue of a phase or a search
  // repair(): per left node, the arc its search reached it by and that
  // arc's owner.
  std::vector<std::size_t> via_arc_;
  std::vector<NodeId> parent_;
};

/// One-shot helper: maximum matching of alive edges (optionally masked).
REDIST_DETERMINISTIC
Matching max_matching(const BipartiteGraph& g,
                      const std::vector<char>& mask = {});

/// One-shot helper: size of the maximum matching.
REDIST_DETERMINISTIC
std::size_t max_matching_size(const BipartiteGraph& g,
                              const std::vector<char>& mask = {});

}  // namespace redist
