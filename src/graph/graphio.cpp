#include "graph/graphio.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace redist {

void write_graph(std::ostream& os, const BipartiteGraph& g) {
  os << g.left_count() << ' ' << g.right_count() << ' ' << g.alive_edge_count()
     << '\n';
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (!g.alive(e)) continue;
    const Edge& edge = g.edge(e);
    os << edge.left << ' ' << edge.right << ' ' << edge.weight << '\n';
  }
}

BipartiteGraph read_graph(std::istream& is) {
  // Defensive ceilings: a malformed header must raise Error instead of
  // attempting a multi-gigabyte allocation.
  constexpr NodeId kMaxNodes = 1 << 20;
  constexpr long long kMaxEdges = 1LL << 27;
  NodeId n_left = 0;
  NodeId n_right = 0;
  long long m = 0;
  REDIST_CHECK_MSG(static_cast<bool>(is >> n_left >> n_right >> m),
                   "graph header malformed");
  REDIST_CHECK_MSG(m >= 0 && m <= kMaxEdges, "unreasonable edge count");
  REDIST_CHECK_MSG(n_left >= 0 && n_left <= kMaxNodes && n_right >= 0 &&
                       n_right <= kMaxNodes,
                   "unreasonable node count");
  BipartiteGraph g(n_left, n_right);
  for (long long i = 0; i < m; ++i) {
    NodeId l = 0;
    NodeId r = 0;
    Weight w = 0;
    REDIST_CHECK_MSG(static_cast<bool>(is >> l >> r >> w),
                     "graph edge line " << i << " malformed");
    g.add_edge(l, r, w);
  }
  return g;
}

std::string graph_to_dot(const BipartiteGraph& g, const std::string& name) {
  std::ostringstream os;
  os << "graph " << name << " {\n  rankdir=LR;\n";
  for (NodeId v = 0; v < g.left_count(); ++v) {
    os << "  l" << v << " [shape=circle];\n";
  }
  for (NodeId v = 0; v < g.right_count(); ++v) {
    os << "  r" << v << " [shape=doublecircle];\n";
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (!g.alive(e)) continue;
    const Edge& edge = g.edge(e);
    os << "  l" << edge.left << " -- r" << edge.right << " [label=\""
       << edge.weight << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace redist
