#include "oracle/bottleneck_oracle.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "kpbs/regularize.hpp"
#include "kpbs/wrgp.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/hungarian.hpp"

namespace redist::oracle {

namespace {

std::vector<Weight> distinct_alive_weights(const BipartiteGraph& g) {
  std::vector<Weight> out;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (g.alive(e)) out.push_back(g.edge(e).weight);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// 1 for alive edges of weight >= threshold, 0 otherwise.
std::vector<char> mask_at_least(const BipartiteGraph& g, Weight threshold) {
  std::vector<char> mask(static_cast<std::size_t>(g.edge_count()), 0);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (g.alive(e) && g.edge(e).weight >= threshold) {
      mask[static_cast<std::size_t>(e)] = 1;
    }
  }
  return mask;
}

// The largest threshold (among distinct weights) at which a matching of
// `target` edges still exists, and the maximum matching found there.
Matching bottleneck_search(const BipartiteGraph& g, std::size_t target) {
  const std::vector<Weight> ws = distinct_alive_weights(g);
  if (target == 0 || ws.empty()) return Matching{};
  // Invariant: feasible at ws[lo], infeasible above ws[hi]. Feasibility is
  // monotone decreasing in the threshold.
  std::size_t lo = 0;
  std::size_t hi = ws.size() - 1;
  Matching best = max_matching(g, mask_at_least(g, ws[lo]));
  REDIST_CHECK_MSG(best.size() >= target, "bottleneck: target unreachable");
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    Matching candidate = max_matching(g, mask_at_least(g, ws[mid]));
    if (candidate.size() >= target) {
      lo = mid;
      best = std::move(candidate);
    } else {
      hi = mid - 1;
    }
  }
  return best;
}

}  // namespace

Matching bottleneck_maximal_threshold(const BipartiteGraph& g) {
  return bottleneck_search(g, max_matching_size(g));
}

Matching bottleneck_perfect_threshold(const BipartiteGraph& g) {
  REDIST_CHECK_MSG(g.left_count() == g.right_count(),
                   "perfect matching requires equal sides");
  const auto target = static_cast<std::size_t>(g.left_count());
  Matching m = bottleneck_search(g, target);
  REDIST_CHECK_MSG(m.size() == target,
                   "no perfect matching exists (size " << m.size() << " of "
                                                       << target << ")");
  return m;
}

Matching bottleneck_maximal_incremental(const BipartiteGraph& g) {
  // Figure 6 of the paper: G'' holds the not-yet-considered edges, G' the
  // considered ones; repeatedly move the heaviest edge of G'' into G' and
  // re-augment the matching of G', stopping when it is maximum in G.
  const std::size_t target = max_matching_size(g);
  Matching m;
  if (target == 0) return m;

  std::vector<EdgeId> order;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (g.alive(e)) order.push_back(e);
  }
  std::sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    const Weight wa = g.edge(a).weight;
    const Weight wb = g.edge(b).weight;
    return wa != wb ? wa > wb : a < b;
  });

  std::vector<char> mask(static_cast<std::size_t>(g.edge_count()), 0);
  HopcroftKarp solver;
  for (EdgeId e : order) {
    mask[static_cast<std::size_t>(e)] = 1;
    // G' gained one edge, so its maximum matching grows by at most one
    // augmenting path from the previous one.
    solver.rebind(g, mask);
    m = solver.solve_seeded(m);
    if (m.size() >= target) return m;
  }
  REDIST_CHECK_MSG(false, "bottleneck incremental: target never reached");
  return m;  // unreachable
}

Matching arbitrary_perfect_matching(const BipartiteGraph& g) {
  return max_matching(g);
}

Matching bottleneck_perfect_matching(const BipartiteGraph& g) {
  Matching m = bottleneck_perfect_threshold(g);
  const Matching fig6 = bottleneck_maximal_incremental(g);
  REDIST_CHECK_MSG(fig6.size() == m.size() &&
                       min_weight(g, fig6) == min_weight(g, m),
                   "Figure 6 bottleneck " << min_weight(g, fig6)
                                          << " differs from threshold search "
                                          << min_weight(g, m));
  return m;
}

Schedule solve(const BipartiteGraph& demand, int k, Weight beta,
               Algorithm algorithm) {
  REDIST_CHECK_MSG(beta >= 0, "negative beta");
  Schedule schedule;
  if (demand.empty()) return schedule;
  k = clamp_k(demand, k);

  const Weight unit = std::max<Weight>(1, beta);
  BipartiteGraph normalized(demand.left_count(), demand.right_count());
  std::vector<EdgeId> demand_edge;  // normalized edge -> demand edge
  for (EdgeId e = 0; e < demand.edge_count(); ++e) {
    if (!demand.alive(e)) continue;
    const Edge& edge = demand.edge(e);
    normalized.add_edge(edge.left, edge.right, ceil_div(edge.weight, unit));
    demand_edge.push_back(e);
  }

  Regularized reg = regularize(normalized, k);
  PerfectMatchingStrategy strategy(arbitrary_perfect_matching);
  if (algorithm == Algorithm::kOGGP) {
    strategy = bottleneck_perfect_matching;
  } else if (algorithm == Algorithm::kGGPMaxWeight) {
    strategy = max_weight_perfect_matching;
  }
  const std::vector<PeelStep> peels = wrgp_peel(reg.graph, strategy);

  std::vector<Weight> remaining(demand_edge.size());
  for (std::size_t i = 0; i < demand_edge.size(); ++i) {
    remaining[i] = demand.edge(demand_edge[i]).weight;
  }
  for (const PeelStep& peel : peels) {
    Step step;
    for (EdgeId je : peel.matching.edges) {
      const EdgeId ne = reg.origin[static_cast<std::size_t>(je)];
      if (ne == kNoEdge) continue;  // filler or deficit edge
      const auto idx = static_cast<std::size_t>(ne);
      const Weight realized = std::min(peel.amount * unit, remaining[idx]);
      remaining[idx] -= realized;
      const Edge& src = demand.edge(demand_edge[idx]);
      step.comms.push_back(Communication{src.left, src.right, realized});
    }
    if (!step.comms.empty()) schedule.add_step(std::move(step));
  }
  return schedule;
}

}  // namespace redist::oracle
