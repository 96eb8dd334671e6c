// The peeling engine behind GGP and OGGP (WRGP's matching selection).
//
// A from-scratch OGGP step would re-sort the distinct residual weights and
// restart Hopcroft–Karp from a greedy seed for every probe of the
// bottleneck binary search. But consecutive WRGP steps differ only by the
// edges the previous step clamped, so almost all of that work is repeated.
// PeelingContext persists the reusable state:
//
//  * a weight ledger: the ascending distinct alive residual weights, which
//    are the bottleneck search's thresholds, with a parallel count vector.
//    A peel updates it by binary search, so no step sorts or rebuilds it;
//  * the previous step's bottleneck, which caps the next step's search:
//    peeling only lowers weights, so a step's optimal bottleneck never
//    exceeds the previous one. The search probes the cap first and only
//    binary-searches below it when that probe fails;
//  * the previous step's matching, used to warm-seed every feasibility
//    probe of the binary search below the cap (solve_seeded) — probes only
//    decide feasibility, which is a property of the graph, not of the
//    matching found, so warm seeds cannot change the search outcome;
//  * one rebindable Hopcroft–Karp solver, reused across probes and steps.
//    GGP keeps its snapshot: only edges that die leave GGP's usable set,
//    and before_peel() names them, so the next step drops their arcs
//    instead of rebinding.
//
// A context follows one graph through its peel: the ledger, the cap and the
// GGP snapshot are all carried over from the previous step of that graph.
//
// Canonical replay: a step's matching is the greedy-seeded Hopcroft–Karp
// run at the optimal threshold, so it depends only on the residual graph
// and never on the seeds. A feasible cap probe is that run; otherwise the
// search below the cap ends by replaying it at the threshold it found.
// tests/oracle holds the from-scratch threshold search and the paper's
// Fig. 6 algorithm; the differential tests check that every step matches
// them edge for edge and in bottleneck value.
#pragma once

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
  /// threshold, found by a search capped at the previous step's bottleneck
  /// and warm-started from its matching. Throws if no perfect matching
  /// exists; requires equal side sizes.
  REDIST_DETERMINISTIC
  Matching bottleneck_perfect(const BipartiteGraph& g);

  /// Records that `amount` is about to be peeled off every edge of `m` (the
  /// ledger, the edges that die). Must be called *before* the weights drop,
  /// once per step, with the matching this context returned for the step.
  REDIST_DETERMINISTIC
  void before_peel(const BipartiteGraph& g, const Matching& m, Weight amount);

  /// Installs `m` as the warm seed of the next bottleneck search. Intended
  /// for cross-instance warm starts (the scheduler daemon's near-miss cache
  /// path, docs/SERVICE.md). That search first drops every seed edge that is
  /// out of range or dead in its graph, or that shares an endpoint with an
  /// earlier kept edge, so what remains is a matching and the seed-hit
  /// shortcut stays sound. Seeds then only shortcut feasibility checks and
  /// every step's final matching is canonically replayed, so any seed (even
  /// a nonsense one) leaves schedules bit-identical.
  void seed(Matching m) {
    last_ = std::move(m);
    seed_pending_ = true;
    last_bottleneck_ = 0;
  }

 private:
  void ensure_ledger(const BipartiteGraph& g);

  HopcroftKarp hk_;                // rebindable solver (reused buffers)
  std::vector<Weight> ws_;         // ledger: distinct alive weights, ascending
  std::vector<EdgeId> counts_;     // ledger: alive edges per ws_ entry
  std::vector<EdgeId> dead_;       // GGP: edges the last peel killed
  Matching last_;                  // previous step's final matching
  bool tracking_weights_ = false;  // ledger initialized (OGGP path)
  bool ggp_snapshot_ = false;      // hk_ holds GGP's bind of this graph
  bool seed_pending_ = false;      // last_ is an unchecked seed()
  Weight last_bottleneck_ = 0;     // previous step's bottleneck; 0 = none
};

}  // namespace redist
