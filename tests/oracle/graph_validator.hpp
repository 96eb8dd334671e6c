// GraphValidator — structural audits of the communication graph and of the
// weight-regularization transform, for tests: the solver property suites
// check regularize()'s input and output with it, and the WRGP suite checks
// every peeled residual.
//
// `validate()` recounts every aggregate a BipartiteGraph caches (per-node
// weights and degrees, total weight, alive-edge count) straight from the
// edge array and compares the recount against the accessors, so a drifted
// cache shows up as a kGraphConsistency violation rather than a wrong
// schedule three layers later.
//
// `validate_regularized()` checks the contract of regularize() (Section
// 4.2.2): equal sides, c-weight-regularity with the advertised c, total
// weight exactly c*k, a complete and faithful origin mapping back to the
// input graph, and no synthetic dummy-to-dummy edges.
#pragma once

#include "graph/bipartite_graph.hpp"
#include "kpbs/regularize.hpp"
#include "kpbs/schedule_validator.hpp"

namespace redist {

class GraphValidator {
 public:
  /// Audits internal consistency of any bipartite graph.
  static ValidationReport validate(const BipartiteGraph& g);

  /// Checks that every non-isolated (or all, when `strict_all_nodes`) node
  /// has total adjacent weight `expected`; pass expected = -1 to accept any
  /// common value.
  static ValidationReport validate_weight_regular(
      const BipartiteGraph& g, Weight expected = -1,
      bool strict_all_nodes = true);

  /// Checks the full regularization contract of `reg` against the
  /// (beta-normalized) input graph it was built from.
  static ValidationReport validate_regularized(const BipartiteGraph& original,
                                               const Regularized& reg);
};

}  // namespace redist
