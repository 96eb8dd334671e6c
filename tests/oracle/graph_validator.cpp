#include "oracle/graph_validator.hpp"

#include <sstream>
#include <vector>

namespace redist {

namespace {

struct Recount {
  std::vector<Weight> weight_left, weight_right;
  std::vector<int> degree_left, degree_right;
  Weight total = 0;
  EdgeId alive = 0;
};

Recount recount_from_edges(const BipartiteGraph& g, ValidationReport* report) {
  Recount r;
  r.weight_left.assign(static_cast<std::size_t>(g.left_count()), 0);
  r.weight_right.assign(static_cast<std::size_t>(g.right_count()), 0);
  r.degree_left.assign(static_cast<std::size_t>(g.left_count()), 0);
  r.degree_right.assign(static_cast<std::size_t>(g.right_count()), 0);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& edge = g.edge(e);
    std::ostringstream os;
    if (edge.left < 0 || edge.left >= g.left_count() || edge.right < 0 ||
        edge.right >= g.right_count()) {
      os << "edge " << e << " endpoints out of range (" << edge.left << "->"
         << edge.right << ")";
      report->add(InvariantKind::kGraphConsistency, os.str());
      continue;
    }
    if (edge.weight < 0) {
      os << "edge " << e << " has negative residual weight " << edge.weight;
      report->add(InvariantKind::kGraphConsistency, os.str());
      continue;
    }
    if (edge.weight == 0) continue;  // dead edge: excluded from aggregates
    r.weight_left[static_cast<std::size_t>(edge.left)] += edge.weight;
    r.weight_right[static_cast<std::size_t>(edge.right)] += edge.weight;
    ++r.degree_left[static_cast<std::size_t>(edge.left)];
    ++r.degree_right[static_cast<std::size_t>(edge.right)];
    r.total += edge.weight;
    ++r.alive;
  }
  return r;
}

}  // namespace

ValidationReport GraphValidator::validate(const BipartiteGraph& g) {
  ValidationReport report;
  const Recount r = recount_from_edges(g, &report);

  auto expect = [&report](auto got, auto want, const char* what, NodeId v) {
    if (got == want) return;
    std::ostringstream os;
    os << what;
    if (v >= 0) os << " of node " << v;
    os << " reports " << got << " but a recount gives " << want;
    report.add(InvariantKind::kGraphConsistency, os.str());
  };

  Weight max_weight = 0;
  int max_degree = 0;
  for (NodeId v = 0; v < g.left_count(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    expect(g.node_weight_left(v), r.weight_left[i], "left weight", v);
    expect(g.degree_left(v), r.degree_left[i], "left degree", v);
    max_weight = std::max(max_weight, r.weight_left[i]);
    max_degree = std::max(max_degree, r.degree_left[i]);
  }
  for (NodeId v = 0; v < g.right_count(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    expect(g.node_weight_right(v), r.weight_right[i], "right weight", v);
    expect(g.degree_right(v), r.degree_right[i], "right degree", v);
    max_weight = std::max(max_weight, r.weight_right[i]);
    max_degree = std::max(max_degree, r.degree_right[i]);
  }
  expect(g.total_weight(), r.total, "P(G)", kNoNode);
  expect(g.alive_edge_count(), r.alive, "alive edge count", kNoNode);
  expect(g.max_node_weight(), max_weight, "W(G)", kNoNode);
  expect(g.max_degree(), max_degree, "Delta(G)", kNoNode);
  return report;
}

ValidationReport GraphValidator::validate_weight_regular(
    const BipartiteGraph& g, Weight expected, bool strict_all_nodes) {
  ValidationReport report;
  const Recount r = recount_from_edges(g, &report);

  Weight c = expected;
  auto check_side = [&](const std::vector<Weight>& weights, const char* side) {
    for (std::size_t v = 0; v < weights.size(); ++v) {
      const Weight w = weights[v];
      if (w == 0 && !strict_all_nodes) continue;  // isolated nodes exempt
      if (c < 0) c = w;  // first relevant node fixes the common value
      if (w != c) {
        std::ostringstream os;
        os << side << " node " << v << " has weight " << w
           << " but the graph should be " << c << "-weight-regular";
        report.add(InvariantKind::kRegularity, os.str());
      }
    }
  };
  check_side(r.weight_left, "left");
  check_side(r.weight_right, "right");
  return report;
}

ValidationReport GraphValidator::validate_regularized(
    const BipartiteGraph& original, const Regularized& reg) {
  ValidationReport report = validate(reg.graph);
  const BipartiteGraph& j = reg.graph;

  if (j.left_count() != j.right_count()) {
    std::ostringstream os;
    os << "regularized graph has unequal sides " << j.left_count() << "x"
       << j.right_count() << " (perfect matchings impossible)";
    report.add(InvariantKind::kRegularity, os.str());
  }
  report.merge(validate_weight_regular(j, reg.regular_weight,
                                       /*strict_all_nodes=*/true));
  // c-regularity over n nodes per side fixes the total weight to c*n.
  const Weight want_total =
      reg.regular_weight * static_cast<Weight>(j.left_count());
  if (j.total_weight() != want_total) {
    std::ostringstream os;
    os << "P(J) = " << j.total_weight() << " but c*n = " << want_total
       << " (c = " << reg.regular_weight << ", n = " << j.left_count() << ")";
    report.add(InvariantKind::kRegularity, os.str());
  }

  if (reg.origin.size() != static_cast<std::size_t>(j.edge_count())) {
    std::ostringstream os;
    os << "origin map covers " << reg.origin.size() << " of "
       << j.edge_count() << " edges";
    report.add(InvariantKind::kRegularity, os.str());
    return report;  // per-edge checks below would misindex
  }

  std::vector<int> covered(static_cast<std::size_t>(original.edge_count()), 0);
  // Original plus filler-pair weight must pad P(G) to exactly c*k
  // (Proposition 1: every perfect matching of J then carries k such edges).
  Weight padded = 0;
  const auto in_filler_band = [&reg](const Edge& edge) {
    return edge.left >= reg.original_left &&
           !reg.is_dummy_left(edge.left) &&
           edge.right >= reg.original_right && !reg.is_dummy_right(edge.right);
  };
  for (EdgeId e = 0; e < j.edge_count(); ++e) {
    const Edge& edge = j.edge(e);
    const EdgeId src = reg.origin[static_cast<std::size_t>(e)];
    std::ostringstream os;
    if (src == kNoEdge) {
      if (in_filler_band(edge)) padded += edge.weight;
      // Synthetic edge: filler (fresh pair) or deficit (towards a dummy).
      // Neither kind may connect two dummy nodes, and at least one endpoint
      // must lie outside the original bands.
      if (reg.is_dummy_left(edge.left) && reg.is_dummy_right(edge.right)) {
        os << "synthetic edge " << e << " connects two dummy nodes ("
           << edge.left << "->" << edge.right << ")";
        report.add(InvariantKind::kRegularity, os.str());
      } else if (edge.left < reg.original_left &&
                 edge.right < reg.original_right) {
        os << "synthetic edge " << e << " connects two original nodes ("
           << edge.left << "->" << edge.right << ")";
        report.add(InvariantKind::kRegularity, os.str());
      }
      continue;
    }
    if (src < 0 || src >= original.edge_count()) {
      os << "edge " << e << " claims out-of-range origin " << src;
      report.add(InvariantKind::kRegularity, os.str());
      continue;
    }
    const Edge& orig = original.edge(src);
    if (orig.left != edge.left || orig.right != edge.right ||
        orig.weight != edge.weight) {
      os << "edge " << e << " (" << edge.left << "->" << edge.right << ", w="
         << edge.weight << ") does not reproduce its origin " << src << " ("
         << orig.left << "->" << orig.right << ", w=" << orig.weight << ")";
      report.add(InvariantKind::kRegularity, os.str());
    }
    ++covered[static_cast<std::size_t>(src)];
    padded += edge.weight;
  }
  const Weight want_padded = reg.regular_weight * static_cast<Weight>(reg.k);
  if (padded != want_padded) {
    std::ostringstream os;
    os << "original + filler weight is " << padded << " but c*k = "
       << want_padded << " (c = " << reg.regular_weight << ", k = " << reg.k
       << ")";
    report.add(InvariantKind::kRegularity, os.str());
  }
  for (EdgeId e = 0; e < original.edge_count(); ++e) {
    const int n = covered[static_cast<std::size_t>(e)];
    const int want = original.alive(e) ? 1 : 0;
    if (n != want) {
      std::ostringstream os;
      os << "original edge " << e << " is carried " << n
         << " time(s) in the regularized graph (want " << want << ")";
      report.add(InvariantKind::kRegularity, os.str());
    }
  }
  return report;
}

}  // namespace redist
