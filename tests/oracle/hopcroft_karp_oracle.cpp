#include "oracle/hopcroft_karp_oracle.hpp"

#include <limits>

namespace redist::oracle {

namespace {

constexpr int kInf = std::numeric_limits<int>::max();

struct Search {
  const BipartiteGraph& g;
  const std::vector<char>& usable;
  ReferenceMatching& out;
  std::vector<NodeId> mate_of_right;
  std::vector<int> dist;

  void match(NodeId left, EdgeId e, NodeId right) {
    EdgeId& held = out.match_left[static_cast<std::size_t>(left)];
    if (held == kNoEdge) out.changes.emplace_back(left, kNoEdge);
    held = e;
    mate_of_right[static_cast<std::size_t>(right)] = left;
  }

  bool bfs_layers() {
    std::vector<NodeId> queue;
    for (NodeId v = 0; v < g.left_count(); ++v) {
      const bool free = out.match_left[static_cast<std::size_t>(v)] == kNoEdge;
      dist[static_cast<std::size_t>(v)] = free ? 0 : kInf;
      if (free) queue.push_back(v);
    }
    bool found_free_right = false;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      for (const EdgeId e : g.edges_of_left(u)) {
        if (usable[static_cast<std::size_t>(e)] == 0) continue;
        const NodeId next =
            mate_of_right[static_cast<std::size_t>(g.edge(e).right)];
        if (next == kNoNode) {
          found_free_right = true;
        } else if (dist[static_cast<std::size_t>(next)] == kInf) {
          dist[static_cast<std::size_t>(next)] =
              dist[static_cast<std::size_t>(u)] + 1;
          queue.push_back(next);
        }
      }
    }
    return found_free_right;
  }

  bool dfs_augment(NodeId left) {
    const auto l = static_cast<std::size_t>(left);
    for (const EdgeId e : g.edges_of_left(left)) {
      if (usable[static_cast<std::size_t>(e)] == 0) continue;
      const NodeId right = g.edge(e).right;
      const NodeId next = mate_of_right[static_cast<std::size_t>(right)];
      if (next == kNoNode ||
          (dist[static_cast<std::size_t>(next)] == dist[l] + 1 &&
           dfs_augment(next))) {
        match(left, e, right);
        return true;
      }
    }
    dist[l] = kInf;  // dead end; prune
    return false;
  }
};

}  // namespace

ReferenceMatching reference_max_matching(const BipartiteGraph& g,
                                         Weight min_weight,
                                         const std::vector<char>& mask) {
  std::vector<char> usable(static_cast<std::size_t>(g.edge_count()));
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto i = static_cast<std::size_t>(e);
    usable[i] = static_cast<char>(g.edge(e).weight >= min_weight &&
                                  (mask.empty() || mask[i] != 0));
  }
  ReferenceMatching out;
  out.match_left.assign(static_cast<std::size_t>(g.left_count()), kNoEdge);
  Search s{g, usable, out,
           std::vector<NodeId>(static_cast<std::size_t>(g.right_count()),
                               kNoNode),
           std::vector<int>(static_cast<std::size_t>(g.left_count()))};
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& edge = g.edge(e);
    if (usable[static_cast<std::size_t>(e)] != 0 &&
        out.match_left[static_cast<std::size_t>(edge.left)] == kNoEdge &&
        s.mate_of_right[static_cast<std::size_t>(edge.right)] == kNoNode) {
      s.match(edge.left, e, edge.right);
    }
  }
  while (s.bfs_layers()) {
    std::uint64_t paths = 0;
    for (NodeId v = 0; v < g.left_count(); ++v) {
      if (out.match_left[static_cast<std::size_t>(v)] == kNoEdge &&
          s.dfs_augment(v)) {
        ++paths;
      }
    }
    ++out.phases;
    out.augmenting_paths += paths;
    if (paths == 0) break;
  }
  return out;
}

}  // namespace redist::oracle
