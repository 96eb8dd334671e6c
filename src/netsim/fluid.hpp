// Fluid-flow network simulator with max-min fair sharing.
//
// Models the paper's brute-force "let TCP sort it out" baseline: all flows
// start at once and share three families of capacity constraints — each
// sender's outgoing card, each receiver's incoming card, and the backbone.
// Rates are the max-min fair allocation (progressive filling), recomputed at
// every flow completion. This is the *idealized* steady state of many
// long-lived TCP flows.
//
// One simulation builds its constraint structure once and keeps it across
// flow completions: a constraint exists only for a node that carries a
// flow, lists only its active flows, and a filling round visits only the
// constraints that still have an unfrozen flow. Every rate, completion time
// and recomputation count is bit-identical to a from-scratch fill over all
// flows and all n1 + n2 + 1 constraints (the test oracle in
// tests/oracle/fluid_oracle.hpp; docs/PERF.md, "The fluid simulator").
// Inputs are checked once, up front: per-node card overrides must be empty
// or exactly n1 / n2 long, fairness weights finite and > 0.
//
// Real TCP under heavy oversubscription additionally loses goodput to
// drops, retransmissions and window hunting, and behaves nondeterministically
// (the paper observed up to 10% run-to-run variance). Two knobs model that:
//  * `congestion_alpha`: the backbone's effective capacity becomes
//    T / (1 + alpha * log2(offered / T)) while the offered card-limited load
//    exceeds T (offered is what the cards would push if the backbone were
//    infinite). alpha = 0 disables the penalty.
//  * `jitter_stddev`: each inter-event interval is stretched by a
//    log-normal factor exp(N(0, sigma)), seeded, giving reproducible
//    nondeterminism.
//  * `unfairness_stddev`: TCP shares are not max-min fair in practice —
//    flows with unlucky RTT/loss patterns get persistently smaller shares.
//    Each flow draws a log-normal fairness weight exp(N(0, sigma)) and the
//    filling raises rates proportionally to the weights. The resulting
//    ragged completion tail drains at the (shaped) card speed 100/k, which
//    is why the paper's measured benefit of scheduling *grows* with k.
// Scheduled execution (executor.hpp) never oversubscribes the backbone and
// runs card-limited disjoint flows, so none of the three knobs hurt it —
// exactly the asymmetry (and determinism) the paper measured.
#pragma once

#include <cstdint>
#include <vector>

#include "common/contract_annotations.hpp"
#include "common/types.hpp"
#include "netsim/platform.hpp"

REDIST_LAYER("netsim");

namespace redist {

struct Flow {
  NodeId src = 0;
  NodeId dst = 0;
  double bytes = 0;
};

struct FluidOptions {
  double congestion_alpha = 0.0;
  double jitter_stddev = 0.0;
  double unfairness_stddev = 0.0;
  std::uint64_t seed = 1;
};

struct FluidResult {
  double makespan_seconds = 0;
  std::vector<double> completion_seconds;  ///< per input flow
  int rate_recomputations = 0;
};

/// (Weighted) max-min fair rates for `flows` on `p` (exposed for tests).
/// `backbone_bps_override` <= 0 means "use p.backbone_bps"; empty `active`
/// means every flow is active (an inactive flow gets rate 0); empty
/// `weights` means all flows weigh 1 (classic max-min fairness).
std::vector<double> max_min_rates(const Platform& p,
                                  const std::vector<Flow>& flows,
                                  const std::vector<char>& active,
                                  double backbone_bps_override = 0,
                                  const std::vector<double>& weights = {});

/// Simulates all flows starting at t = 0 until completion.
FluidResult simulate_fluid(const Platform& p, const std::vector<Flow>& flows,
                           const FluidOptions& options = {});

}  // namespace redist
