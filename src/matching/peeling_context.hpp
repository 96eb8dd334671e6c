// The peeling engine behind GGP and OGGP (WRGP's matching selection).
//
// Consecutive WRGP steps differ only by the edges the previous step
// clamped, so PeelingContext carries the reusable state across them:
//
//  * the previous step's bottleneck b, which caps the next step's search
//    (peeling only lowers weights, so the optimum never rises);
//  * the previous step's matched edges that survived its peel, which seed
//    OGGP's next probe;
//  * one Hopcroft–Karp solver whose snapshot follows the peel: before_peel()
//    names the matched edges that fell below its threshold (1 for GGP, b
//    for OGGP) or landed on it, and the next step shrinks the snapshot by
//    them instead of rebinding. OGGP rebinds only when the threshold falls;
//  * the widest-path search's and the repair seed's buffers.
//
// An OGGP step is any perfect matching of the residual whose minimum edge
// weight is the optimal bottleneck t* (PAPER.md §1, Fig. 6). A step runs
// Fig. 6 from the top down: a cap probe at an upper bound T on t* (the
// largest alive weight <= b; on the first step, the lightest of the nodes'
// heaviest edges) repairs the previous step's surviving edges, then the
// edges weighing exactly T, with HopcroftKarp::solve_seeded (the first
// step runs the cold solve). A perfect probe is the step. Otherwise widest
// augmenting paths from its matching find t*, and one repair at t* seeded
// with the weight-t* edges first and the widest-path matching after them
// gives the step. O(m + d·m log n) per step for a deficit of d, plus the
// repair's searches.
//
// A context follows one graph through its peel. GGP keeps the cold run, so
// its matchings stay max_matching's. tests/oracle checks every OGGP step
// against a from-scratch threshold search and the paper's Fig. 6: perfect,
// with the optimal minimum.
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
  /// edges that leave or join the solver's snapshot, and the ones that
  /// survive (OGGP's next seed). Must be called *before* the weights drop,
  /// once per step, with the matching this context returned for the step.
  REDIST_DETERMINISTIC
  void before_peel(const BipartiteGraph& g, const Matching& m, Weight amount);

 private:
  /// Augments the matching in mate_/owner_ along a widest augmenting path
  /// over all alive edges, each path's width capped at `t`. Returns the
  /// path's width, or 0 when no augmenting path exists.
  REDIST_NOALLOC
  Weight widest_augment(const BipartiteGraph& g, Weight t);

  HopcroftKarp hk_;             // rebindable solver (reused buffers)
  // The last peel's matched edges against hk_'s threshold: below it, on it
  // (OGGP, ascending), alive (OGGP's seed), and how many weighed exactly it.
  std::vector<EdgeId> fallen_;
  std::vector<EdgeId> joined_;
  std::vector<EdgeId> kept_;
  std::size_t leaving_ = 0;
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
