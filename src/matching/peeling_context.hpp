// The peeling engine behind GGP and OGGP (WRGP's matching selection).
//
// A from-scratch OGGP step would re-sort the distinct residual weights and
// restart Hopcroft–Karp from a greedy seed for every probe of the
// bottleneck binary search. But consecutive WRGP steps differ only by the
// edges the previous step clamped, so almost all of that work is repeated.
// PeelingContext persists the reusable state:
//
//  * a weight ledger (multiset of alive residual weights) updated in
//    O(|M| log d) per step, so the sorted distinct-weight array of the
//    bottleneck search is rebuilt by traversal instead of an O(m log m)
//    sort, and shrinks as weights are consumed;
//  * the previous step's matching, used to warm-seed every feasibility
//    probe of the binary search (solve_seeded) — probes only decide
//    feasibility, which is a property of the graph, not of the matching
//    found, so warm seeds cannot change the search outcome;
//  * one rebindable Hopcroft–Karp solver and one distinct-weight buffer,
//    reused across probes and steps. Probes still allocate a little: the
//    solver's BFS queue and the Matching each solve returns.
//
// Canonical replay: once the binary search lands on the optimal threshold,
// the step's matching is produced by a greedy-seeded Hopcroft–Karp run at
// that threshold, so it depends only on the residual graph and never on
// the seeds. tests/oracle holds the from-scratch threshold search and the
// paper's Fig. 6 algorithm; the differential tests check that every step
// matches them edge for edge and in bottleneck value.
#pragma once

#include <map>

#include "common/contract_annotations.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/matching.hpp"

REDIST_LAYER("matching");

namespace redist {

class PeelingContext {
 public:
  PeelingContext() = default;

  /// Same matching as max_matching(g) (the GGP strategy), with the solver
  /// buffers reused across steps instead of reallocated.
  REDIST_DETERMINISTIC
  Matching arbitrary_perfect(const BipartiteGraph& g);

  /// Perfect matching maximizing the minimum edge weight (the OGGP
  /// strategy): the greedy-seeded Hopcroft–Karp matching at the optimal
  /// threshold, found by a binary search warm-started from the previous
  /// step. Throws if no perfect matching exists; requires equal side sizes.
  REDIST_DETERMINISTIC
  Matching bottleneck_perfect(const BipartiteGraph& g);

  /// Records that `amount` is about to be peeled off every edge of `m`.
  /// Must be called *before* the weights are decreased, once per step, with
  /// the matching this context returned for the step.
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
  }

  /// The last matching this context produced — the warm handle a solve
  /// exports for future near-miss seeding. Empty before any step.
  const Matching& last_matching() const { return last_; }

 private:
  void ensure_ledger(const BipartiteGraph& g);

  HopcroftKarp hk_;                      // rebindable solver (reused buffers)
  std::vector<Weight> ws_;               // ascending distinct weights scratch
  Matching last_;                        // previous step's final matching
  std::map<Weight, EdgeId> weight_count_;  // alive residual weight multiset
  bool tracking_weights_ = false;        // ledger initialized (OGGP path)
  bool seed_pending_ = false;            // last_ is an unchecked seed()
};

}  // namespace redist
