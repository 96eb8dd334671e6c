// The peeling engine behind GGP and OGGP (WRGP's matching selection).
//
// Consecutive WRGP steps differ only by the edges the previous step
// clamped, so a from-scratch bottleneck search per step repeats almost all
// of its work. PeelingContext persists the reusable state:
//
//  * the previous step's bottleneck, which caps the next step's search:
//    peeling only lowers weights, so a step's optimal bottleneck never
//    exceeds the previous one;
//  * one rebindable Hopcroft–Karp solver, reused across steps. GGP keeps
//    its snapshot: only edges that die leave GGP's usable set, and
//    before_peel() names them, so the next step drops their arcs instead
//    of rebinding;
//  * the widest-path search's buffers (mates, widths, path edges, heap), so
//    steps after the first allocate nothing there.
//
// An OGGP step is the paper's Fig. 6 run from the top down: a cap probe, d
// widest augmenting paths, and a replay. The cap probe is the canonical
// Hopcroft–Karp run at an upper bound T on the optimum t* (the largest
// alive weight at or below the previous bottleneck; on the first step, the
// lightest of the nodes' heaviest edges). If it is perfect it is the step.
// Otherwise its maximum matching has some deficit d, and d widest
// augmenting paths over all alive edges each lower t to the path's
// narrowest edge; t ends at t*. O(m√n + d·m log n) per step.
//
// A context follows one graph through its peel: the cap and the GGP
// snapshot are carried over from the previous step of that graph.
//
// Canonical replay: a step's matching is the greedy-seeded Hopcroft–Karp
// run at the optimal threshold, so it depends only on the residual graph.
// A perfect cap probe is that run; otherwise the step ends by replaying it
// at t. tests/oracle holds the from-scratch threshold search and the
// paper's Fig. 6 algorithm; the differential tests check that every step
// matches them edge for edge and in bottleneck value.
#pragma once

#include <utility>
#include <vector>

#include "common/contract_annotations.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/matching.hpp"

REDIST_LAYER("matching");

namespace redist {

class PeelingContext {
 public:
  PeelingContext() = default;

  /// Same matching as max_matching(g) (the GGP strategy). After a
  /// before_peel() the solver's snapshot is kept, minus the edges that died.
  REDIST_DETERMINISTIC
  Matching arbitrary_perfect(const BipartiteGraph& g);

  /// Perfect matching maximizing the minimum edge weight (the OGGP
  /// strategy): the greedy-seeded Hopcroft–Karp matching at the optimal
  /// threshold, found by a cap probe and widest augmenting paths. Throws if
  /// no perfect matching exists; requires equal side sizes.
  REDIST_DETERMINISTIC
  Matching bottleneck_perfect(const BipartiteGraph& g);

  /// Records that `amount` is about to be peeled off every edge of `m` (the
  /// edges that die, for GGP's snapshot). Must be called *before* the
  /// weights drop, once per step, with the matching this context returned
  /// for the step.
  REDIST_DETERMINISTIC
  void before_peel(const BipartiteGraph& g, const Matching& m, Weight amount);

 private:
  /// Augments the matching in mate_/owner_ along a widest augmenting path
  /// over all alive edges, each path's width capped at `t`. Returns the
  /// path's width, or 0 when no augmenting path exists.
  REDIST_NOALLOC
  Weight widest_augment(const BipartiteGraph& g, Weight t);

  HopcroftKarp hk_;             // rebindable solver (reused buffers)
  std::vector<EdgeId> dead_;    // GGP: edges the last peel killed
  bool ggp_snapshot_ = false;   // hk_ holds GGP's bind of this graph
  Weight last_bottleneck_ = 0;  // previous step's bottleneck; 0 = none
  // Widest-path search state, sized per step and reused.
  std::vector<EdgeId> mate_;   // left node -> matched edge
  std::vector<NodeId> owner_;  // right node -> matched left node
  std::vector<Weight> width_;  // left node -> widest path width reaching it
  std::vector<EdgeId> via_;    // left node -> edge that path arrived by
  // Max-heap of (width, left node) with lazy deletion.
  std::vector<std::pair<Weight, NodeId>> heap_;
};

}  // namespace redist
