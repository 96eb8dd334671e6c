// The peeling engine behind GGP and OGGP (WRGP's matching selection).
//
// Consecutive WRGP steps differ only by the edges the previous step
// clamped, so a from-scratch bottleneck search per step repeats almost all
// of its work. PeelingContext persists the reusable state:
//
//  * the previous step's bottleneck, which caps the next step's search:
//    peeling only lowers weights, so a step's optimal bottleneck never
//    exceeds the previous one;
//  * the previous step's matched edges that survived its peel, which seed
//    OGGP's next probe;
//  * one rebindable Hopcroft–Karp solver, reused across steps. GGP keeps
//    its snapshot: only edges that die leave GGP's usable set, and
//    before_peel() names them, so the next step drops their arcs instead
//    of rebinding;
//  * the widest-path search's and the repair seed's buffers, so steps
//    after the first allocate nothing there.
//
// An OGGP step is any perfect matching of the residual whose minimum edge
// weight is the optimal bottleneck t* (PAPER.md §1, Fig. 6); which of those
// matchings is taken is left open. A step runs the paper's Fig. 6 from the
// top down: a cap probe at an upper bound T on t* (the largest alive weight
// at or below the previous bottleneck; on the first step, the lightest of
// the nodes' heaviest edges), then, if the probe is not perfect, widest
// augmenting paths from its maximum matching until t reaches t*.
//
// Consecutive steps differ only in the edges that died, so the probe
// repairs the previous matching instead of matching from scratch: the
// first step's probe is the cold Hopcroft–Karp run, every later probe is
// HopcroftKarp::solve_seeded from the previous step's surviving edges,
// then the edges weighing exactly T (those this step would kill). A
// perfect probe is the step. Otherwise, once the widest paths find t*, one
// more repair at t* seeded with the weight-t* edges first and the widest-
// path matching after them gives the step. O(m + d·m log n) per step for a
// deficit of d, plus the repair's searches.
//
// A context follows one graph through its peel: the cap, the previous
// matching and the GGP snapshot are carried over from the previous step of
// that graph. GGP keeps the cold run, so its matchings stay max_matching's.
// tests/oracle checks every OGGP step against a from-scratch threshold
// search and the paper's Fig. 6: perfect, with the optimal minimum.
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
  /// strategy), found by a cap probe, widest augmenting paths and a repair
  /// of the previous step's matching. Throws if no perfect matching exists;
  /// requires equal side sizes.
  REDIST_DETERMINISTIC
  Matching bottleneck_perfect(const BipartiteGraph& g);

  /// Records that `amount` is about to be peeled off every edge of `m`: the
  /// edges that die (for GGP's snapshot) and the ones that survive (OGGP's
  /// next seed). Must be called *before* the weights drop, once per step,
  /// with the matching this context returned for the step.
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
  std::vector<EdgeId> kept_;    // OGGP: edges the last peel left alive
  Matching seed_;               // OGGP: the repair's seed, reused
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
