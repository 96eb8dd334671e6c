// Hopcroft–Karp maximum-cardinality bipartite matching, O(m * sqrt(n)).
//
// Operates over the alive edges of a BipartiteGraph, optionally restricted by
// an edge mask. The paper's WRGP engine calls this once per peeling step (it
// cites Micali–Vazirani / Alt et al.; Hopcroft–Karp has the same O(m sqrt n)
// bound on bipartite graphs and is the standard practical choice).
//
// The solver is rebindable: one instance can be pointed at successive
// graph/mask pairs, reusing its buffers instead of reallocating.
// PeelingContext keeps one instance through a WRGP peel. solve() is the
// cold run (greedy seed, then phases); GGP and OGGP's first probe use it.
// solve_seeded() is the repair that OGGP's rebinds and the test oracle's
// Fig. 6 search use: it keeps a given partial matching and completes it
// with one breadth-first augmenting search per free left node. OGGP's
// later probes keep the matching itself: shrink() unmatches only the edges
// that fell, and complete() repairs what they left free.
//
// A rebind snapshots the usable edge set (alive, at or above the threshold,
// permitted by the mask) into a flat per-left-node arc list, kept in each
// node's adjacency order, so the BFS and DFS walk contiguous arrays and
// never see an unusable edge. The snapshot is not refreshed: a caller that
// changes the graph's weights must rebind before solving again, or name
// the edges that fell below the threshold to shrink().
#pragma once

#include <cstdint>
#include <span>
#include <utility>
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

  /// Counts phases and augmenting paths into `metrics`' hk.phases and
  /// hk.augmenting_paths counters from now on; nullptr counts nothing.
  /// The registry must outlive every solve that counts into it.
  void count_into(obs::MetricsRegistry* metrics);

  /// The usable edges of the last bind that weigh exactly its threshold
  /// (1 for rebind()), ascending.
  std::span<const EdgeId> threshold_edges() const {
    return {threshold_ids_.data(), threshold_count_};
  }

  /// Drops the arcs of the snapshot edges `fallen` below the threshold and
  /// unmatches them; the rest of the matching stays. If weights only fell
  /// since the bind and `fallen` names every such edge, the arcs equal a
  /// fresh bind's (GGP passes only the dead edges). Starts a new changes().
  REDIST_NOALLOC
  void shrink(std::span<const EdgeId> fallen);

  /// Computes a maximum matching from a greedy seed. Deterministic: a given
  /// (graph, mask) pair always yields the same matching.
  REDIST_DETERMINISTIC
  Matching solve() {
    maximize();
    return matching();
  }
  /// solve() in place; returns the matching's size.
  REDIST_NOALLOC
  std::size_t maximize();

  /// Repairs `seed` into a maximum matching: seed edges that are usable
  /// (alive, mask-permitted, endpoints still free) are taken in order, then
  /// each free left node, in id order, gets one breadth-first augmenting
  /// search that stops at the first free right node. By Berge's lemma a
  /// node with no augmenting path never gains one later, so one pass is
  /// maximum: the *size* always equals solve()'s, the edge set may differ.
  /// Counts as one `hk.phases`.
  REDIST_DETERMINISTIC
  Matching solve_seeded(const Matching& seed);

  /// Completes the matching shrink() left, given every free left node in
  /// ascending order: first the arcs of those nodes that weigh exactly the
  /// threshold and end at a free right node, ascending, then solve_seeded's
  /// searches. The result equals solve_seeded() of a fresh bind seeded with
  /// the kept matching followed by threshold_edges(): an edge at the
  /// threshold with both ends free leaves from a free left node. Returns
  /// the matching's size; counts as one `hk.phases`.
  REDIST_NOALLOC
  std::size_t complete(std::span<const NodeId> free_left);

  std::size_t size() const { return size_; }
  Matching matching() const;
  /// Each left node whose matched edge changed since the last shrink(),
  /// solve or bind, once, with the edge it held before (kNoEdge if none).
  std::span<const std::pair<NodeId, EdgeId>> changes() const {
    return {changes_.data(), change_count_};
  }

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
  /// A node of dfs_augment()'s path and the arc it tries.
  struct Frame {
    NodeId left;
    std::uint32_t arc;
  };

  void bind(const BipartiteGraph& g, Weight min_weight,
            const std::vector<char>& mask);
  void reset();
  /// Gives `left` the edge `e` to `right` (kNoEdge: unmatches both),
  /// logging the first change of `left` in changes().
  void match(NodeId left, EdgeId e, NodeId right) {
    const auto l = static_cast<std::size_t>(left);
    if (noted_[l] != epoch_) {
      noted_[l] = epoch_;
      changes_[change_count_++] = {left, match_left_[l]};
    }
    match_left_[l] = e;
    mate_of_right_[static_cast<std::size_t>(right)] =
        e == kNoEdge ? kNoNode : left;
  }
  /// Matches `e` if both its endpoints are free.
  void take(EdgeId e);
  void augment_to_maximum();
  bool bfs_layers();
  /// The augmenting searches of solve_seeded() and complete(), one per
  /// free node of `roots`; returns the number of paths applied.
  REDIST_NOALLOC
  std::uint64_t repair(std::span<const NodeId> roots);
  /// The GGP peel and OGGP's first probe augment through here, so it must
  /// stay allocation-free (`noalloc` analyzer rule) and iterative: a path
  /// may be as long as the graph, too deep for a recursion.
  REDIST_NOALLOC
  bool dfs_augment(NodeId root);

  const BipartiteGraph* g_ = nullptr;
  // count_into()'s counters; null when not counting.
  obs::Counter* phases_ = nullptr;
  obs::Counter* paths_ = nullptr;
  Weight min_weight_ = 1;               // threshold of the last bind
  std::vector<char> usable_;            // edge id -> usable in the snapshot
  std::vector<EdgeId> usable_ids_;      // usable ids ascending; solve() prunes
  std::vector<EdgeId> threshold_ids_;   // one slot per edge: the usable ids
  std::size_t threshold_count_ = 0;     // weighing min_weight_, in front
  std::vector<std::uint32_t> arc_begin_;  // left node -> first arc
  std::vector<std::uint32_t> arc_end_;    // left node -> one past its last arc
  std::vector<Arc> arcs_;               // usable edges, grouped by left node
  std::vector<EdgeId> match_left_;      // left node -> matched edge id
  std::vector<NodeId> mate_of_right_;   // right node -> matched left node
  std::size_t size_ = 0;                // matched left nodes
  // changes(): the log, and per left node the epoch it was last logged in.
  std::vector<std::pair<NodeId, EdgeId>> changes_;
  std::size_t change_count_ = 0;
  std::vector<std::uint64_t> noted_;
  std::uint64_t epoch_ = 0;
  std::vector<int> dist_;               // BFS layer per left node in solve()
  std::vector<NodeId> queue_;           // BFS queue of a phase or a search
  std::vector<Frame> stack_;            // dfs_augment(): the path, root first
  // repair(): per left node, the stamp of the search that reached it (or
  // of the repair that proved it a dead end), the arc that search reached
  // it by and that arc's owner.
  std::vector<std::uint32_t> seen_;
  std::uint32_t stamp_ = 0;
  std::vector<std::uint32_t> via_arc_;
  std::vector<NodeId> parent_;
  std::vector<NodeId> roots_;           // solve_seeded(): the free left nodes
  std::vector<EdgeId> seeds_;           // complete(): the arcs at threshold
};

/// One-shot helper: maximum matching of alive edges (optionally masked).
REDIST_DETERMINISTIC
Matching max_matching(const BipartiteGraph& g,
                      const std::vector<char>& mask = {});

}  // namespace redist
