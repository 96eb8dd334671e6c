#include "matching/matching.hpp"

#include <algorithm>

namespace redist {

bool is_matching(const BipartiteGraph& g, const Matching& m) {
  std::vector<char> left_used(static_cast<std::size_t>(g.left_count()), 0);
  std::vector<char> right_used(static_cast<std::size_t>(g.right_count()), 0);
  for (EdgeId e : m.edges) {
    if (e < 0 || e >= g.edge_count() || !g.alive(e)) return false;
    const Edge& edge = g.edge(e);
    if (left_used[static_cast<std::size_t>(edge.left)] ||
        right_used[static_cast<std::size_t>(edge.right)]) {
      return false;
    }
    left_used[static_cast<std::size_t>(edge.left)] = 1;
    right_used[static_cast<std::size_t>(edge.right)] = 1;
  }
  return true;
}

bool is_perfect_matching(const BipartiteGraph& g, const Matching& m) {
  if (g.left_count() != g.right_count()) return false;
  if (static_cast<NodeId>(m.size()) != g.left_count()) return false;
  return is_matching(g, m);
}

Weight min_weight(const BipartiteGraph& g, const Matching& m) {
  Weight w = 0;
  bool first = true;
  for (EdgeId e : m.edges) {
    const Weight we = g.edge(e).weight;
    w = first ? we : std::min(w, we);
    first = false;
  }
  return w;
}

}  // namespace redist
