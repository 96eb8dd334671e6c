#include "kpbs/regularize.hpp"

#include <algorithm>

#include "common/math.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace redist {

int clamp_k(const BipartiteGraph& g, int k) {
  const int cap = static_cast<int>(std::min(g.left_count(), g.right_count()));
  return std::max(1, std::min(k, std::max(1, cap)));
}

Regularized regularize(const BipartiteGraph& g, int k) {
  REDIST_CHECK_MSG(!g.empty(), "cannot regularize an empty graph");
  k = clamp_k(g, k);
  obs::TraceSpan span(obs::trace(), "regularize");

  const Weight p = g.total_weight();
  const Weight w_max = g.max_node_weight();
  const Weight c = std::max(w_max, ceil_div(p, k));

  // ---- Plan filler edges (fresh node pairs) so that P(G') == c * k. ----
  // add_edge checks J's total c * |V1'| as it grows; c * k comes first.
  Weight filler_total = 0;
  REDIST_CHECK_MSG(!__builtin_mul_overflow(c, Weight{k}, &filler_total),
                   "c * k overflows for c = " << c << ", k = " << k);
  filler_total -= p;
  REDIST_CHECK(filler_total >= 0);
  std::vector<Weight> filler_weights;
  while (filler_total > 0) {
    const Weight w = std::min(filler_total, c);
    filler_weights.push_back(w);
    filler_total -= w;
  }
  const auto n_filler = static_cast<NodeId>(filler_weights.size());

  // Sides of G' (original + filler pair nodes).
  const NodeId left_prime = g.left_count() + n_filler;
  const NodeId right_prime = g.right_count() + n_filler;

  // Dummy nodes absorbing deficits: |V1'| - k dummy rights, |V2'| - k dummy
  // lefts. Both are >= 0 because k <= min(n1, n2) <= each side of G'.
  const NodeId dummy_right = left_prime - static_cast<NodeId>(k);
  const NodeId dummy_left = right_prime - static_cast<NodeId>(k);
  REDIST_CHECK(dummy_right >= 0 && dummy_left >= 0);

  const NodeId total_left = left_prime + dummy_left;
  const NodeId total_right = right_prime + dummy_right;
  REDIST_CHECK(total_left == total_right);  // equal sides for perfect matchings

  Regularized out{BipartiteGraph(total_left, total_right), c, k, {},
                  g.left_count(), g.right_count(), n_filler};

  // Original edges keep their node ids; record their origin.
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (!g.alive(e)) continue;
    const Edge& edge = g.edge(e);
    out.graph.add_edge(edge.left, edge.right, edge.weight);
    out.origin.push_back(e);
  }

  // Filler edges between fresh pairs (left id n1+i, right id n2+i).
  for (NodeId i = 0; i < n_filler; ++i) {
    out.graph.add_edge(g.left_count() + i, g.right_count() + i,
                       filler_weights[static_cast<std::size_t>(i)]);
    out.origin.push_back(kNoEdge);
  }

  // Greedy transportation fill: every left node of G' is topped up to c by
  // edges to dummy right nodes (each of capacity c), and symmetrically.
  // Total left deficit = c*|V1'| - c*k = c*(|V1'|-k) = capacity of the
  // dummy rights, so the greedy two-pointer fill closes exactly.
  auto fill = [&](NodeId count_prime, NodeId dummies, NodeId dummy_base,
                  auto node_weight, auto add_deficit_edge) {
    NodeId dummy = 0;
    Weight dummy_room = (dummies > 0) ? c : 0;
    for (NodeId v = 0; v < count_prime; ++v) {
      Weight deficit = c - node_weight(v);
      REDIST_CHECK(deficit >= 0);
      while (deficit > 0) {
        REDIST_CHECK_MSG(dummy < dummies, "transportation fill ran out");
        const Weight take = std::min(deficit, dummy_room);
        add_deficit_edge(v, dummy_base + dummy, take);
        deficit -= take;
        dummy_room -= take;
        if (dummy_room == 0) {
          ++dummy;
          dummy_room = (dummy < dummies) ? c : 0;
        }
      }
    }
    REDIST_CHECK_MSG(dummy == dummies, "dummy capacity not exactly consumed");
  };

  // Left side of G' -> dummy right nodes.
  fill(
      left_prime, dummy_right, right_prime,
      [&](NodeId v) { return out.graph.node_weight_left(v); },
      [&](NodeId v, NodeId dummy_id, Weight w) {
        out.graph.add_edge(v, dummy_id, w);
        out.origin.push_back(kNoEdge);
      });
  // Right side of G' -> dummy left nodes.
  fill(
      right_prime, dummy_left, left_prime,
      [&](NodeId v) { return out.graph.node_weight_right(v); },
      [&](NodeId v, NodeId dummy_id, Weight w) {
        out.graph.add_edge(dummy_id, v, w);
        out.origin.push_back(kNoEdge);
      });

  // The dummies were topped up exactly; the result must be c-regular.
  Weight check_c = 0;
  REDIST_CHECK_MSG(out.graph.is_weight_regular(&check_c) && check_c == c,
                   "regularization produced a non-regular graph");
  REDIST_CHECK(out.origin.size() ==
               static_cast<std::size_t>(out.graph.edge_count()));

  // Case 1: c pinned by the heaviest node (W >= ceil(P/k)); case 2: by the
  // average load ceil(P/k). Synthetic-structure counters let the metrics
  // dump explain how much padding the transform added.
  const bool case1 = w_max >= ceil_div(p, k);
  if (obs::MetricsRegistry* const metrics = obs::metrics()) {
    metrics->counter("regularize.calls").add();
    metrics->counter(case1 ? "regularize.case1_wmax" : "regularize.case2_pk")
        .add();
    metrics->counter("regularize.filler_edges").add(n_filler);
    metrics->counter("regularize.dummy_nodes").add(dummy_left + dummy_right);
    metrics->counter("regularize.synthetic_edges")
        .add(static_cast<std::uint64_t>(
            std::count(out.origin.begin(), out.origin.end(), kNoEdge)));
  }
  if (span) {
    span.arg("k", k);
    span.arg("c", c);
    span.arg("case", case1 ? std::string_view("W(G)")
                           : std::string_view("ceil(P/k)"));
    span.arg("filler_edges", n_filler);
    span.arg("dummy_nodes", dummy_left + dummy_right);
    span.arg("edges_out", out.graph.edge_count());
  }
  return out;
}

}  // namespace redist
