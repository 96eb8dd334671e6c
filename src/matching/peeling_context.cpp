#include "matching/peeling_context.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace redist {

namespace {

// The heaviest alive edge among `adjacent`, or 0 if none is alive.
Weight heaviest(const BipartiteGraph& g, const std::vector<EdgeId>& adjacent) {
  Weight w = 0;
  for (EdgeId e : adjacent) w = std::max(w, g.edge(e).weight);
  return w;
}

// An upper bound on the optimal bottleneck with no previous step: a perfect
// matching covers every node, so it is at most each node's heaviest alive
// edge. 0 if some node has no alive edge.
Weight lightest_heaviest_edge(const BipartiteGraph& g) {
  Weight cap = std::numeric_limits<Weight>::max();
  for (NodeId v = 0; v < g.left_count(); ++v) {
    cap = std::min(cap, heaviest(g, g.edges_of_left(v)));
  }
  for (NodeId v = 0; v < g.right_count(); ++v) {
    cap = std::min(cap, heaviest(g, g.edges_of_right(v)));
  }
  return cap;
}

// The largest alive weight <= `bound`, or 0 if none.
Weight largest_weight_at_most(const BipartiteGraph& g, Weight bound) {
  Weight w = 0;
  for (const Edge& edge : g.edges()) {
    if (edge.weight <= bound) w = std::max(w, edge.weight);
  }
  return w;
}

}  // namespace

Matching PeelingContext::arbitrary_perfect(const BipartiteGraph& g) {
  // GGP's matching must stay bit-identical to max_matching(g), whose result
  // depends on the greedy seed — so no warm seed here. Only the edges that
  // died leave GGP's usable set, so dropping their arcs is the rebind.
  if (ggp_snapshot_) {
    hk_.shrink(fallen_, joined_);
  } else {
    hk_.rebind(g);
  }
  ggp_snapshot_ = true;
  return hk_.solve();
}

Matching PeelingContext::bottleneck_perfect(const BipartiteGraph& g) {
  REDIST_CHECK_MSG(g.left_count() == g.right_count(),
                   "perfect matching requires equal sides");
  const auto target = static_cast<std::size_t>(g.left_count());
  if (target == 0) return Matching{};

  obs::MetricsRegistry* const metrics = obs::metrics();
  // Looked up every step, so the count is exported even when it stays 0.
  obs::Counter* const widest_counter =
      metrics != nullptr ? &metrics->counter("bottleneck.widest_paths")
                         : nullptr;
  obs::TraceSpan search_span(obs::trace(), "bottleneck.search.warm");

  // The cap T bounds the optimum t* from above. After a step with
  // bottleneck b, any perfect matching M' of the peeled residual was a
  // perfect matching before the peel, with weights at least as large, so
  // min'(M') <= min(M') <= b: T is the largest alive weight <= b.
  // Each step leaves hk_ bound at its b; the peel lowers only matched edges,
  // and edges outside the snapshot weigh < b. So the snapshot shrunk by
  // before_peel()'s lists is G_b, and while it holds a weight-b edge, T = b.
  const bool reused = last_bottleneck_ > 0 && !ggp_snapshot_ &&
                      hk_.threshold_edges().size() + joined_.size() > leaving_;
  ggp_snapshot_ = false;
  if (reused) hk_.shrink(fallen_, joined_);
  const Weight cap = reused                 ? last_bottleneck_
                     : last_bottleneck_ > 0 ? largest_weight_at_most(
                                                  g, last_bottleneck_)
                                            : lightest_heaviest_edge(g);
  REDIST_CHECK_MSG(cap > 0, "no perfect matching exists (no alive weight "
                            "at or below the cap)");

  // Cap probe at T. The first step has no matching to repair and runs the
  // cold solve; later steps repair the previous matching's survivors, then
  // take the edges this step would kill.
  Matching result;
  {
    obs::TraceSpan probe_span(obs::trace(), "bottleneck.probe");
    if (metrics != nullptr) metrics->counter("bottleneck.probes").add();
    if (!reused) hk_.rebind_threshold(g, cap);
    if (last_bottleneck_ > 0) {
      const std::span<const EdgeId> dying = hk_.threshold_edges();
      seed_.edges.assign(kept_.begin(), kept_.end());
      seed_.edges.insert(seed_.edges.end(), dying.begin(), dying.end());
      result = hk_.solve_seeded(seed_);
    } else {
      result = hk_.solve();
    }
    if (probe_span) {
      probe_span.arg("threshold", cap);
      probe_span.arg("reused", reused);
      probe_span.arg("feasible", result.size() == target);
      probe_span.arg("deficit", target - result.size());
    }
  }

  // Widest augmenting paths from the probe's maximum matching of G_T. The
  // matching stays inside G_{t*} (induction on the paths): G_{t*} has a
  // perfect matching, so a path of width >= t* always exists and t never
  // drops below t*. The final matching is perfect inside G_t, so t <= t*.
  Weight t = cap;
  if (result.size() < target) {
    mate_.assign(target, kNoEdge);
    owner_.assign(target, kNoNode);
    width_.resize(target);
    via_.resize(target);
    // A search pushes each free left node once, then at most once per arc.
    heap_.resize(target + static_cast<std::size_t>(g.edge_count()));
    for (EdgeId e : result.edges) {
      const Edge& edge = g.edge(e);
      mate_[static_cast<std::size_t>(edge.left)] = e;
      owner_[static_cast<std::size_t>(edge.right)] = edge.left;
    }
    for (std::size_t d = result.size(); d < target; ++d) {
      t = widest_augment(g, t);  // a path is never wider than t
      REDIST_CHECK_MSG(t > 0, "no perfect matching exists (size "
                                  << d << " of " << target << ")");
      if (widest_counter != nullptr) widest_counter->add();
    }
    // The widest-path matching is already perfect with minimum t*. Repair
    // it at t* behind the weight-t* edges, so the step kills as many edges
    // as the seed can hold; the repair keeps it perfect inside G_{t*}.
    obs::TraceSpan replay_span(obs::trace(), "bottleneck.replay");
    if (replay_span) replay_span.arg("threshold", t);
    hk_.rebind_threshold(g, t);
    seed_.edges.assign(hk_.threshold_edges().begin(),
                       hk_.threshold_edges().end());
    seed_.edges.insert(seed_.edges.end(), mate_.begin(), mate_.end());
    result = hk_.solve_seeded(seed_);
  }
  REDIST_CHECK_MSG(result.size() == target,
                   "no perfect matching exists (size "
                       << result.size() << " of " << target << ")");
  // A perfect matching inside G_t has minimum >= t; a strictly larger one
  // would mean the widest paths stopped below t*.
  REDIST_CHECK_MSG(min_weight(g, result) == t,
                   "warm bottleneck value diverged from threshold " << t);
  last_bottleneck_ = t;
  if (metrics != nullptr && (!reused || t < cap)) {  // the cap, the replay
    metrics->counter("bottleneck.rebinds").add((reused ? 0U : 1U) + (t < cap));
  }
  if (search_span) {
    search_span.arg("cap", cap);
    search_span.arg("bottleneck", t);
  }
  return result;
}

Weight PeelingContext::widest_augment(const BipartiteGraph& g, Weight t) {
  // Max-min Dijkstra over left nodes: a left node's width is the narrowest
  // unmatched edge on the widest alternating path reaching it from a free
  // left node (matched edges all weigh >= t, so they never narrow a path).
  const std::vector<Edge>& edges = g.edges();
  std::size_t heap_size = 0;
  const auto offer = [&](Weight w, NodeId v) {
    width_[static_cast<std::size_t>(v)] = w;
    heap_[heap_size++] = {w, v};
    std::push_heap(heap_.begin(),
                   heap_.begin() + static_cast<std::ptrdiff_t>(heap_size));
  };
  for (std::size_t v = 0; v < mate_.size(); ++v) {
    width_[v] = 0;
    via_[v] = kNoEdge;
  }
  for (std::size_t v = 0; v < mate_.size(); ++v) {
    if (mate_[v] == kNoEdge) offer(t, static_cast<NodeId>(v));
  }
  Weight best = 0;  // widest path found to a free right node
  EdgeId best_edge = kNoEdge;
  while (heap_size > 0) {
    std::pop_heap(heap_.begin(),
                  heap_.begin() + static_cast<std::ptrdiff_t>(heap_size));
    const auto [w, u] = heap_[--heap_size];
    if (w <= best) break;  // no wider path is left
    if (w < width_[static_cast<std::size_t>(u)]) continue;  // stale entry
    for (EdgeId e : g.edges_of_left(u)) {
      const Edge& edge = edges[static_cast<std::size_t>(e)];
      const Weight through = std::min(w, edge.weight);  // dead edges weigh 0
      if (through <= best) continue;
      const NodeId mate = owner_[static_cast<std::size_t>(edge.right)];
      if (mate == kNoNode) {
        best = through;
        best_edge = e;
      } else if (through > width_[static_cast<std::size_t>(mate)]) {
        via_[static_cast<std::size_t>(mate)] = e;
        offer(through, mate);
      }
    }
  }
  // Flip the path back to its free left root.
  for (EdgeId e = best_edge; e != kNoEdge;) {
    const Edge& edge = edges[static_cast<std::size_t>(e)];
    const EdgeId next = via_[static_cast<std::size_t>(edge.left)];
    mate_[static_cast<std::size_t>(edge.left)] = e;
    owner_[static_cast<std::size_t>(edge.right)] = edge.left;
    e = next;
  }
  return best;
}

void PeelingContext::before_peel(const BipartiteGraph& g, const Matching& m,
                                 Weight amount) {
  REDIST_CHECK(amount > 0);
  const Weight floor = ggp_snapshot_ ? 1 : last_bottleneck_;
  fallen_.clear();
  joined_.clear();
  kept_.clear();
  leaving_ = 0;
  for (EdgeId e : m.edges) {
    const Weight old_weight = g.edge(e).weight;
    REDIST_CHECK_MSG(old_weight >= amount,
                     "peel amount exceeds residual weight");
    if (old_weight == floor) ++leaving_;
    const Weight rest = old_weight - amount;
    if (rest > 0) kept_.push_back(e);
    if (rest < floor) fallen_.push_back(e);
    if (rest == floor && !ggp_snapshot_) joined_.push_back(e);
  }
  std::sort(joined_.begin(), joined_.end());
}

}  // namespace redist
