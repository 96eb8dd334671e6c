#include "graph/bipartite_graph.hpp"

#include <algorithm>

namespace redist {

BipartiteGraph::BipartiteGraph(NodeId n_left, NodeId n_right)
    : n_left_(n_left),
      n_right_(n_right),
      adj_left_(static_cast<std::size_t>(n_left)),
      adj_right_(static_cast<std::size_t>(n_right)),
      weight_left_(static_cast<std::size_t>(n_left), 0),
      weight_right_(static_cast<std::size_t>(n_right), 0),
      degree_left_(static_cast<std::size_t>(n_left), 0),
      degree_right_(static_cast<std::size_t>(n_right), 0) {
  REDIST_CHECK_MSG(n_left >= 0 && n_right >= 0,
                   "negative vertex count: " << n_left << "x" << n_right);
}

EdgeId BipartiteGraph::add_edge(NodeId left, NodeId right, Weight weight) {
  check_left(left);
  check_right(right);
  REDIST_CHECK_MSG(weight > 0, "edge weight must be positive, got " << weight);
  // No node outweighs the total, so a total that fits bounds every sum.
  Weight total = 0;
  REDIST_CHECK_MSG(!__builtin_add_overflow(total_weight_, weight, &total),
                   "edge weight " << weight << " overflows the total weight");
  const auto id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{left, right, weight});
  adj_left_[static_cast<std::size_t>(left)].push_back(id);
  adj_right_[static_cast<std::size_t>(right)].push_back(id);
  weight_left_[static_cast<std::size_t>(left)] += weight;
  weight_right_[static_cast<std::size_t>(right)] += weight;
  degree_left_[static_cast<std::size_t>(left)] += 1;
  degree_right_[static_cast<std::size_t>(right)] += 1;
  total_weight_ = total;
  ++alive_edges_;
  return id;
}

void BipartiteGraph::decrease_weight(EdgeId e, Weight delta) {
  Edge& edge = edges_[check_edge(e)];
  REDIST_CHECK_MSG(delta > 0 && delta <= edge.weight,
                   "decrease_weight(" << e << ", " << delta
                                      << ") on residual " << edge.weight);
  edge.weight -= delta;
  weight_left_[static_cast<std::size_t>(edge.left)] -= delta;
  weight_right_[static_cast<std::size_t>(edge.right)] -= delta;
  total_weight_ -= delta;
  if (edge.weight == 0) {
    degree_left_[static_cast<std::size_t>(edge.left)] -= 1;
    degree_right_[static_cast<std::size_t>(edge.right)] -= 1;
    --alive_edges_;
  }
}

const std::vector<EdgeId>& BipartiteGraph::edges_of_left(NodeId v) const {
  return adj_left_[static_cast<std::size_t>(check_left(v))];
}

const std::vector<EdgeId>& BipartiteGraph::edges_of_right(NodeId v) const {
  return adj_right_[static_cast<std::size_t>(check_right(v))];
}

std::vector<EdgeId> BipartiteGraph::alive_edges() const {
  std::vector<EdgeId> out;
  out.reserve(static_cast<std::size_t>(alive_edges_));
  for (EdgeId e = 0; e < edge_count(); ++e) {
    if (edges_[static_cast<std::size_t>(e)].weight > 0) out.push_back(e);
  }
  return out;
}

Weight BipartiteGraph::node_weight_left(NodeId v) const {
  return weight_left_[static_cast<std::size_t>(check_left(v))];
}

Weight BipartiteGraph::node_weight_right(NodeId v) const {
  return weight_right_[static_cast<std::size_t>(check_right(v))];
}

Weight BipartiteGraph::max_node_weight() const {
  Weight w = 0;
  for (Weight x : weight_left_) w = std::max(w, x);
  for (Weight x : weight_right_) w = std::max(w, x);
  return w;
}

int BipartiteGraph::degree_left(NodeId v) const {
  return degree_left_[static_cast<std::size_t>(check_left(v))];
}

int BipartiteGraph::degree_right(NodeId v) const {
  return degree_right_[static_cast<std::size_t>(check_right(v))];
}

int BipartiteGraph::max_degree() const {
  int d = 0;
  for (int x : degree_left_) d = std::max(d, x);
  for (int x : degree_right_) d = std::max(d, x);
  return d;
}

bool BipartiteGraph::is_weight_regular(Weight* regular_weight,
                                       bool strict_all_nodes) const {
  Weight c = -1;
  auto consider = [&](Weight w) {
    if (!strict_all_nodes && w == 0) return true;
    if (c == -1) {
      c = w;
      return true;
    }
    return w == c;
  };
  for (Weight w : weight_left_) {
    if (!consider(w)) return false;
  }
  for (Weight w : weight_right_) {
    if (!consider(w)) return false;
  }
  if (regular_weight != nullptr) *regular_weight = (c == -1 ? 0 : c);
  return true;
}

void BipartiteGraph::check_invariants() const {
  std::vector<Weight> wl(static_cast<std::size_t>(n_left_), 0);
  std::vector<Weight> wr(static_cast<std::size_t>(n_right_), 0);
  std::vector<int> dl(static_cast<std::size_t>(n_left_), 0);
  std::vector<int> dr(static_cast<std::size_t>(n_right_), 0);
  Weight total = 0;
  EdgeId alive = 0;
  for (const Edge& e : edges_) {
    REDIST_CHECK(e.weight >= 0);
    REDIST_CHECK(e.left >= 0 && e.left < n_left_);
    REDIST_CHECK(e.right >= 0 && e.right < n_right_);
    wl[static_cast<std::size_t>(e.left)] += e.weight;
    wr[static_cast<std::size_t>(e.right)] += e.weight;
    total += e.weight;
    if (e.weight > 0) {
      dl[static_cast<std::size_t>(e.left)] += 1;
      dr[static_cast<std::size_t>(e.right)] += 1;
      ++alive;
    }
  }
  REDIST_CHECK(wl == weight_left_);
  REDIST_CHECK(wr == weight_right_);
  REDIST_CHECK(dl == degree_left_);
  REDIST_CHECK(dr == degree_right_);
  REDIST_CHECK(total == total_weight_);
  REDIST_CHECK(alive == alive_edges_);
}

}  // namespace redist
