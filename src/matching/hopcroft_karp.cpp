#include "matching/hopcroft_karp.hpp"

#include <algorithm>
#include <limits>

namespace redist {

namespace {
constexpr int kInf = std::numeric_limits<int>::max();
}  // namespace

HopcroftKarp::HopcroftKarp(const BipartiteGraph& g,
                           const std::vector<char>& mask) {
  rebind(g, mask);
}

void HopcroftKarp::rebind(const BipartiteGraph& g,
                          const std::vector<char>& mask) {
  REDIST_CHECK_MSG(
      mask.empty() || mask.size() == static_cast<std::size_t>(g.edge_count()),
      "edge mask size mismatch");
  bind(g, 1, mask);
}

void HopcroftKarp::rebind_threshold(const BipartiteGraph& g,
                                    Weight min_weight) {
  bind(g, std::max<Weight>(min_weight, 1), {});
}

void HopcroftKarp::bind(const BipartiteGraph& g, Weight min_weight,
                        const std::vector<char>& mask) {
  g_ = &g;
  min_weight_ = min_weight;
  const std::vector<Edge>& edges = g.edges();
  const auto n_left = static_cast<std::size_t>(g.left_count());
  usable_.resize(edges.size());
  usable_ids_.clear();
  threshold_ids_.resize(edges.size());
  threshold_count_ = 0;
  arc_begin_.assign(n_left, 0);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    usable_[e] = static_cast<char>(edges[e].weight >= min_weight &&
                                   (mask.empty() || mask[e] != 0));
    if (usable_[e] == 0) continue;
    usable_ids_.push_back(static_cast<EdgeId>(e));
    ++arc_begin_[static_cast<std::size_t>(edges[e].left)];
    if (edges[e].weight == min_weight) {
      threshold_ids_[threshold_count_++] = static_cast<EdgeId>(e);
    }
  }
  // Each left node's usable edges, in its adjacency order: the BFS and DFS
  // scan them exactly as a filtered walk of edges_of_left would. Adjacency
  // lists hold ascending edge ids, so a counting sort of the usable ids by
  // left node keeps that order without walking any unusable edge.
  arc_end_.resize(n_left);
  std::size_t total = 0;
  for (std::size_t v = 0; v < n_left; ++v) {
    const std::size_t count = arc_begin_[v];
    arc_begin_[v] = arc_end_[v] = static_cast<std::uint32_t>(total);
    total += count;
  }
  arcs_.resize(total);
  for (const EdgeId e : usable_ids_) {
    const Edge& edge = edges[static_cast<std::size_t>(e)];
    arcs_[arc_end_[static_cast<std::size_t>(edge.left)]++] =
        Arc{e, edge.right};
  }
  match_left_.resize(n_left);
  mate_of_right_.resize(static_cast<std::size_t>(g.right_count()));
  changes_.resize(n_left);
  noted_.assign(n_left, 0);
  epoch_ = 0;
  dist_.resize(n_left + 1);  // slot n_left: bfs_layers' free right nodes
  queue_.resize(n_left + 1);
  stack_.resize(n_left);
  seen_.assign(n_left, 0);
  stamp_ = 0;
  via_arc_.resize(n_left);
  parent_.resize(n_left);
  roots_.resize(n_left);
  seeds_.resize(total);
  reset();
}

void HopcroftKarp::reset() {
  std::fill(match_left_.begin(), match_left_.end(), kNoEdge);
  std::fill(mate_of_right_.begin(), mate_of_right_.end(), kNoNode);
  size_ = 0;
  ++epoch_;
  change_count_ = 0;
}

void HopcroftKarp::shrink(std::span<const EdgeId> fallen) {
  REDIST_CHECK_MSG(g_ != nullptr, "HopcroftKarp::shrink before rebind");
  ++epoch_;
  change_count_ = 0;
  for (const EdgeId e : fallen) {
    const Edge& edge = g_->edge(e);
    REDIST_CHECK_MSG(usable_[static_cast<std::size_t>(e)] != 0 &&
                         edge.weight < min_weight_,
                     "shrink: edge " << e << " did not fall");
    usable_[static_cast<std::size_t>(e)] = 0;
    const auto u = static_cast<std::size_t>(edge.left);
    std::uint32_t kept = arc_begin_[u];
    for (std::size_t a = arc_begin_[u]; a < arc_end_[u]; ++a) {
      if (arcs_[a].edge != e) arcs_[kept++] = arcs_[a];
    }
    arc_end_[u] = kept;
    if (match_left_[u] == e) {
      match(edge.left, kNoEdge, edge.right);
      --size_;
    }
  }
}

bool HopcroftKarp::bfs_layers() {
  // No data-dependent branch: a free right node maps to the sentinel slot
  // n, whose layer is 0, so it is never fresh; a fresh left node takes the
  // next layer and is appended by advancing the tail.
  const std::size_t n = match_left_.size();
  std::size_t tail = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const bool free = match_left_[v] == kNoEdge;
    dist_[v] = free ? 0 : kInf;
    queue_[tail] = static_cast<NodeId>(v);
    tail += free;
  }
  dist_[n] = 0;
  bool found_free_right = false;
  for (std::size_t head = 0; head < tail; ++head) {
    const auto u = static_cast<std::size_t>(queue_[head]);
    const int layer = dist_[u] + 1;
    for (std::size_t a = arc_begin_[u]; a < arc_end_[u]; ++a) {
      const NodeId mate =
          mate_of_right_[static_cast<std::size_t>(arcs_[a].right)];
      found_free_right |= mate == kNoNode;
      const NodeId next = mate == kNoNode ? static_cast<NodeId>(n) : mate;
      int& d = dist_[static_cast<std::size_t>(next)];
      const bool fresh = d == kInf;
      d = fresh ? layer : d;
      queue_[tail] = next;
      tail += fresh;
    }
  }
  return found_free_right;
}

bool HopcroftKarp::dfs_augment(NodeId root) {
  // The recursive search on an explicit stack, in the same order: a found
  // path is matched deepest node first, as the recursion did unwinding.
  std::size_t depth = 0;
  stack_[0] = Frame{root, arc_begin_[static_cast<std::size_t>(root)]};
  for (;;) {
    Frame& top = stack_[depth];
    const auto l = static_cast<std::size_t>(top.left);
    if (top.arc == arc_end_[l]) {
      dist_[l] = kInf;  // dead end; prune
      if (depth-- == 0) return false;
      ++stack_[depth].arc;
      continue;
    }
    const NodeId next =
        mate_of_right_[static_cast<std::size_t>(arcs_[top.arc].right)];
    if (next == kNoNode) {
      for (std::size_t i = depth + 1; i-- > 0;) {
        const Arc& arc = arcs_[stack_[i].arc];
        match(stack_[i].left, arc.edge, arc.right);
      }
      return true;
    }
    if (dist_[static_cast<std::size_t>(next)] == dist_[l] + 1) {
      stack_[++depth] = Frame{next, arc_begin_[static_cast<std::size_t>(next)]};
    } else {
      ++top.arc;
    }
  }
}

void HopcroftKarp::count_into(obs::MetricsRegistry* metrics) {
  phases_ = obs::counter_or_null(metrics, "hk.phases");
  paths_ = obs::counter_or_null(metrics, "hk.augmenting_paths");
}

Matching HopcroftKarp::matching() const {
  Matching result;
  for (const EdgeId e : match_left_) {
    if (e != kNoEdge) result.edges.push_back(e);
  }
  return result;
}

void HopcroftKarp::take(EdgeId e) {
  const Edge& edge = g_->edges()[static_cast<std::size_t>(e)];
  if (match_left_[static_cast<std::size_t>(edge.left)] == kNoEdge &&
      mate_of_right_[static_cast<std::size_t>(edge.right)] == kNoNode) {
    match(edge.left, e, edge.right);
    ++size_;
  }
}

void HopcroftKarp::augment_to_maximum() {
  while (bfs_layers()) {
    std::uint64_t paths = 0;
    for (NodeId v = 0; v < g_->left_count(); ++v) {
      if (match_left_[static_cast<std::size_t>(v)] == kNoEdge) {
        if (dfs_augment(v)) ++paths;
      }
    }
    size_ += paths;
    obs::add_count(phases_);
    obs::add_count(paths_, paths);
    if (paths == 0) break;
  }
}

std::size_t HopcroftKarp::maximize() {
  REDIST_CHECK_MSG(g_ != nullptr, "HopcroftKarp::solve before rebind");
  reset();
  // Seed with a greedy matching: cheap and typically covers most vertices.
  // Usable edges are taken in ascending id order, each when both its ends
  // are free. The same pass drops the ids shrink() left.
  std::size_t live = 0;
  for (const EdgeId e : usable_ids_) {
    if (usable_[static_cast<std::size_t>(e)] == 0) continue;
    usable_ids_[live++] = e;
    take(e);
  }
  usable_ids_.erase(usable_ids_.begin() + static_cast<std::ptrdiff_t>(live),
                    usable_ids_.end());
  augment_to_maximum();
  return size_;
}

Matching HopcroftKarp::solve_seeded(const Matching& seed) {
  REDIST_CHECK_MSG(g_ != nullptr, "HopcroftKarp::solve before rebind");
  reset();
  for (EdgeId e : seed.edges) {
    if (e >= 0 && static_cast<std::size_t>(e) < usable_.size() &&
        usable_[static_cast<std::size_t>(e)] != 0) {
      take(e);
    }
  }
  std::size_t free = 0;
  for (std::size_t v = 0; v < match_left_.size(); ++v) {
    if (match_left_[v] == kNoEdge) roots_[free++] = static_cast<NodeId>(v);
  }
  obs::add_count(phases_);
  obs::add_count(paths_, repair({roots_.data(), free}));
  return matching();
}

std::size_t HopcroftKarp::complete(std::span<const NodeId> free_left) {
  REDIST_CHECK_MSG(g_ != nullptr, "HopcroftKarp::complete before rebind");
  const std::vector<Edge>& edges = g_->edges();
  std::size_t count = 0;
  for (const NodeId u : free_left) {
    const auto l = static_cast<std::size_t>(u);
    for (std::size_t a = arc_begin_[l]; a < arc_end_[l]; ++a) {
      if (edges[static_cast<std::size_t>(arcs_[a].edge)].weight ==
              min_weight_ &&
          mate_of_right_[static_cast<std::size_t>(arcs_[a].right)] ==
              kNoNode) {
        seeds_[count++] = arcs_[a].edge;
      }
    }
  }
  const auto end = seeds_.begin() + static_cast<std::ptrdiff_t>(count);
  std::sort(seeds_.begin(), end);
  std::for_each(seeds_.begin(), end, [this](EdgeId e) { take(e); });
  obs::add_count(phases_);
  obs::add_count(paths_, repair(free_left));
  return size_;
}

std::uint64_t HopcroftKarp::repair(std::span<const NodeId> roots) {
  // seen_ holds search stamps: a left node is reached by the current
  // search iff its entry equals the stamp. A failed search reaches a set S
  // whose right neighbours are all matched into S; no later augmenting
  // path can enter S and leave it, so S's matching never changes and its
  // nodes are skipped for the rest of this repair (`dead`).
  if (stamp_ > UINT32_MAX - roots.size() - 2) {  // stamps would wrap
    std::fill(seen_.begin(), seen_.end(), 0);
    stamp_ = 0;
  }
  const std::uint32_t dead = ++stamp_;
  std::uint64_t paths = 0;
  for (const NodeId root_id : roots) {
    const auto root = static_cast<std::size_t>(root_id);
    if (match_left_[root] != kNoEdge) continue;
    const std::uint32_t stamp = ++stamp_;
    std::size_t tail = 0;
    queue_[tail++] = root_id;
    seen_[root] = stamp;
    bool found = false;
    for (std::size_t head = 0; head < tail && !found; ++head) {
      const NodeId u = queue_[head];
      const auto ul = static_cast<std::size_t>(u);
      for (std::size_t a = arc_begin_[ul]; a < arc_end_[ul]; ++a) {
        const NodeId next =
            mate_of_right_[static_cast<std::size_t>(arcs_[a].right)];
        if (next == kNoNode) {
          // Flip the path back to the root: each node on it takes the arc
          // it was offered, freeing the right node its parent takes next.
          NodeId left = u;
          std::size_t arc = a;
          for (;;) {
            const auto l = static_cast<std::size_t>(left);
            match(left, arcs_[arc].edge, arcs_[arc].right);
            if (l == root) break;
            arc = via_arc_[l];
            left = parent_[l];
          }
          found = true;
          break;
        }
        const auto nl = static_cast<std::size_t>(next);
        if (seen_[nl] != stamp && seen_[nl] != dead) {
          seen_[nl] = stamp;
          via_arc_[nl] = static_cast<std::uint32_t>(a);
          parent_[nl] = u;
          queue_[tail++] = next;
        }
      }
    }
    if (found) {
      ++paths;
      ++size_;
    } else {
      for (std::size_t i = 0; i < tail; ++i) {
        seen_[static_cast<std::size_t>(queue_[i])] = dead;
      }
    }
  }
  return paths;
}

Matching max_matching(const BipartiteGraph& g, const std::vector<char>& mask) {
  HopcroftKarp solver(g, mask);
  return solver.solve();
}

}  // namespace redist
