#include "matching/hopcroft_karp.hpp"

#include <algorithm>
#include <deque>
#include <limits>

#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace redist {

namespace {
constexpr int kInf = std::numeric_limits<int>::max();
}  // namespace

HopcroftKarp::HopcroftKarp(const BipartiteGraph& g, std::vector<char> mask) {
  rebind(g, std::move(mask));
}

void HopcroftKarp::rebind(const BipartiteGraph& g, std::vector<char> mask) {
  REDIST_CHECK_MSG(
      mask.empty() || mask.size() == static_cast<std::size_t>(g.edge_count()),
      "edge mask size mismatch");
  mask_ = std::move(mask);
  min_weight_ = 0;
  reset(g);
}

void HopcroftKarp::rebind_threshold(const BipartiteGraph& g,
                                    Weight min_weight) {
  mask_.clear();
  min_weight_ = min_weight;
  reset(g);
}

void HopcroftKarp::reset(const BipartiteGraph& g) {
  g_ = &g;
  match_left_.assign(static_cast<std::size_t>(g.left_count()), kNoEdge);
  match_right_.assign(static_cast<std::size_t>(g.right_count()), kNoEdge);
  dist_.assign(static_cast<std::size_t>(g.left_count()), kInf);
}

bool HopcroftKarp::edge_usable(EdgeId e) const {
  if (!g_->alive(e)) return false;
  if (min_weight_ > 0 && g_->edge(e).weight < min_weight_) return false;
  return mask_.empty() || mask_[static_cast<std::size_t>(e)];
}

bool HopcroftKarp::bfs_layers() {
  std::deque<NodeId> queue;
  for (NodeId v = 0; v < g_->left_count(); ++v) {
    if (match_left_[static_cast<std::size_t>(v)] == kNoEdge) {
      dist_[static_cast<std::size_t>(v)] = 0;
      queue.push_back(v);
    } else {
      dist_[static_cast<std::size_t>(v)] = kInf;
    }
  }
  bool found_free_right = false;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (EdgeId e : g_->edges_of_left(u)) {
      if (!edge_usable(e)) continue;
      const NodeId r = g_->edge(e).right;
      const EdgeId back = match_right_[static_cast<std::size_t>(r)];
      if (back == kNoEdge) {
        found_free_right = true;
      } else {
        const NodeId next = g_->edge(back).left;
        if (dist_[static_cast<std::size_t>(next)] == kInf) {
          dist_[static_cast<std::size_t>(next)] =
              dist_[static_cast<std::size_t>(u)] + 1;
          queue.push_back(next);
        }
      }
    }
  }
  return found_free_right;
}

bool HopcroftKarp::dfs_augment(NodeId left) {
  for (EdgeId e : g_->edges_of_left(left)) {
    if (!edge_usable(e)) continue;
    const NodeId r = g_->edge(e).right;
    const EdgeId back = match_right_[static_cast<std::size_t>(r)];
    bool reachable;
    if (back == kNoEdge) {
      reachable = true;
    } else {
      const NodeId next = g_->edge(back).left;
      reachable = dist_[static_cast<std::size_t>(next)] ==
                      dist_[static_cast<std::size_t>(left)] + 1 &&
                  dfs_augment(next);
    }
    if (reachable) {
      match_left_[static_cast<std::size_t>(left)] = e;
      match_right_[static_cast<std::size_t>(r)] = e;
      return true;
    }
  }
  dist_[static_cast<std::size_t>(left)] = kInf;  // dead end; prune
  return false;
}

Matching HopcroftKarp::augment_to_maximum() {
  obs::MetricsRegistry* const metrics = obs::metrics();
  if (metrics != metrics_src_) {
    metrics_src_ = metrics;
    phases_counter_ =
        metrics != nullptr ? &metrics->counter("hk.phases") : nullptr;
    paths_counter_ =
        metrics != nullptr ? &metrics->counter("hk.augmenting_paths") : nullptr;
  }
  obs::TraceSession* const trace = obs::trace();

  std::uint64_t phase = 0;
  while (bfs_layers()) {
    obs::TraceSpan phase_span(trace, "hk.phase");
    std::uint64_t paths = 0;
    for (NodeId v = 0; v < g_->left_count(); ++v) {
      if (match_left_[static_cast<std::size_t>(v)] == kNoEdge) {
        if (dfs_augment(v)) ++paths;
      }
    }
    if (phases_counter_ != nullptr) {
      phases_counter_->add();
      paths_counter_->add(paths);
    }
    if (phase_span) {
      phase_span.arg("phase", phase);
      phase_span.arg("paths", paths);
    }
    ++phase;
    if (paths == 0) break;
  }
  Matching result;
  for (NodeId v = 0; v < g_->left_count(); ++v) {
    const EdgeId e = match_left_[static_cast<std::size_t>(v)];
    if (e != kNoEdge) result.edges.push_back(e);
  }
  return result;
}

Matching HopcroftKarp::solve() {
  REDIST_CHECK_MSG(g_ != nullptr, "HopcroftKarp::solve before rebind");
  // Seed with a greedy matching: cheap and typically covers most vertices.
  // Same edge-id scan order as greedy_matching, but honoring the active
  // mask/threshold restriction via edge_usable.
  for (EdgeId e = 0; e < g_->edge_count(); ++e) {
    if (!edge_usable(e)) continue;
    const Edge& edge = g_->edge(e);
    const auto l = static_cast<std::size_t>(edge.left);
    const auto r = static_cast<std::size_t>(edge.right);
    if (match_left_[l] != kNoEdge || match_right_[r] != kNoEdge) continue;
    match_left_[l] = e;
    match_right_[r] = e;
  }
  return augment_to_maximum();
}

Matching HopcroftKarp::solve_seeded(const Matching& seed) {
  REDIST_CHECK_MSG(g_ != nullptr, "HopcroftKarp::solve before rebind");
  for (EdgeId e : seed.edges) {
    if (e < 0 || e >= g_->edge_count() || !edge_usable(e)) continue;
    const Edge& edge = g_->edge(e);
    const auto l = static_cast<std::size_t>(edge.left);
    const auto r = static_cast<std::size_t>(edge.right);
    if (match_left_[l] != kNoEdge || match_right_[r] != kNoEdge) continue;
    match_left_[l] = e;
    match_right_[r] = e;
  }
  return augment_to_maximum();
}

Matching max_matching(const BipartiteGraph& g, std::vector<char> mask) {
  HopcroftKarp solver(g, std::move(mask));
  return solver.solve();
}

std::size_t max_matching_size(const BipartiteGraph& g,
                              std::vector<char> mask) {
  return max_matching(g, std::move(mask)).size();
}

}  // namespace redist
