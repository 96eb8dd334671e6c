// Edge-weighted bipartite (multi)graph: the communication graph of K-PBS.
//
// Left vertices are sender-cluster nodes (C1), right vertices receiver-
// cluster nodes (C2), and an edge of weight w is a communication lasting w
// integer time units. The peeling algorithms decrement edge weights in
// place; an edge is *alive* while its residual weight is positive, and all
// degree/weight aggregates refer to alive edges only.
#pragma once

#include <vector>

#include "common/contract_annotations.hpp"
#include "common/error.hpp"
#include "common/types.hpp"

REDIST_LAYER("graph");

namespace redist {

/// A weighted edge (communication) between left node `left` and right node
/// `right`. `weight` is the residual duration; 0 means fully transmitted.
struct Edge {
  NodeId left = kNoNode;
  NodeId right = kNoNode;
  Weight weight = 0;
};

class BipartiteGraph {
 public:
  /// Creates an empty graph with fixed vertex sets of the given sizes.
  BipartiteGraph(NodeId n_left, NodeId n_right);

  NodeId left_count() const { return n_left_; }
  NodeId right_count() const { return n_right_; }

  /// Number of edges ever added (including dead ones).
  EdgeId edge_count() const { return static_cast<EdgeId>(edges_.size()); }
  /// Number of edges with positive residual weight.
  EdgeId alive_edge_count() const { return alive_edges_; }
  bool empty() const { return alive_edges_ == 0; }

  /// Adds an edge with weight > 0 and returns its id. Parallel edges are
  /// permitted (the scheduler treats them as distinct communications).
  EdgeId add_edge(NodeId left, NodeId right, Weight weight);

  const Edge& edge(EdgeId e) const { return edges_[check_edge(e)]; }
  bool alive(EdgeId e) const { return edges_[check_edge(e)].weight > 0; }
  /// Every edge, indexed by id (dead ones included): an unchecked view for
  /// whole-graph scans in hot loops.
  const std::vector<Edge>& edges() const { return edges_; }

  /// Decreases the residual weight of an alive edge by `delta`
  /// (0 < delta <= weight). The edge dies when it reaches zero.
  void decrease_weight(EdgeId e, Weight delta);

  /// Edge ids adjacent to a node (alive and dead; callers filter on alive()).
  const std::vector<EdgeId>& edges_of_left(NodeId v) const;
  const std::vector<EdgeId>& edges_of_right(NodeId v) const;

  /// Ids of all currently alive edges (freshly materialized).
  std::vector<EdgeId> alive_edges() const;

  // -- Aggregates over alive edges (the paper's notation) ------------------

  /// P(G): sum of all edge weights.
  Weight total_weight() const { return total_weight_; }
  /// w(s) for a left/right node: sum of adjacent edge weights.
  Weight node_weight_left(NodeId v) const;
  Weight node_weight_right(NodeId v) const;
  /// W(G) = max_s w(s); 0 for an empty graph.
  Weight max_node_weight() const;
  /// Degree of a node (alive edges only).
  int degree_left(NodeId v) const;
  int degree_right(NodeId v) const;
  /// Δ(G) = max degree; 0 for an empty graph.
  int max_degree() const;

  /// True iff every *non-isolated* behaviourally relevant node has the same
  /// weight. With `strict_all_nodes`, isolated nodes count too (i.e. the
  /// graph is c-regular for every node), which is what WRGP requires.
  bool is_weight_regular(Weight* regular_weight = nullptr,
                         bool strict_all_nodes = true) const;

  /// Verifies internal aggregate consistency; throws on corruption.
  /// Intended for tests.
  void check_invariants() const;

 private:
  EdgeId check_edge(EdgeId e) const {
    REDIST_CHECK_MSG(e >= 0 && e < static_cast<EdgeId>(edges_.size()),
                     "edge id out of range: " << e);
    return e;
  }
  NodeId check_left(NodeId v) const {
    REDIST_CHECK_MSG(v >= 0 && v < n_left_, "left node out of range: " << v);
    return v;
  }
  NodeId check_right(NodeId v) const {
    REDIST_CHECK_MSG(v >= 0 && v < n_right_, "right node out of range: " << v);
    return v;
  }

  NodeId n_left_;
  NodeId n_right_;
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> adj_left_;
  std::vector<std::vector<EdgeId>> adj_right_;
  std::vector<Weight> weight_left_;
  std::vector<Weight> weight_right_;
  std::vector<int> degree_left_;
  std::vector<int> degree_right_;
  Weight total_weight_ = 0;
  EdgeId alive_edges_ = 0;
};

}  // namespace redist
