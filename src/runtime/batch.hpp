// Batch K-PBS front end: solve many independent instances concurrently.
//
// The serving shape behind "schedule redistributions for millions of users":
// each request is an isolated (demand graph, SolverOptions) instance; a
// worker pool fans them out across cores. Determinism is preserved —
// results are positionally identical to a sequential solve_kpbs loop, since
// every instance peels through its own PeelingContext.
//
// Lives in src/runtime (not src/kpbs): fan-out over the ThreadPool is a
// runtime concern, and keeping it here keeps the include-graph layering DAG
// acyclic — kpbs never reaches up into runtime (tools/redist_analyze
// enforces this).
#pragma once

#include <vector>

#include "common/contract_annotations.hpp"
#include "graph/bipartite_graph.hpp"
#include "kpbs/solver.hpp"

REDIST_LAYER("runtime");

namespace redist {

/// One independent K-PBS instance. The per-instance SolverOptions is the
/// same struct the single-solve API takes, so anything expressible there
/// (including a per-instance engine choice) is expressible here.
struct KpbsRequest {
  BipartiteGraph demand{0, 0};
  SolverOptions options;
};

struct BatchOptions {
  int threads = 0;  ///< worker count; 0 picks hardware_concurrency
};

/// Solves requests[i] into result[i]. Equivalent to calling
/// solve_kpbs(requests[i].demand, requests[i].options) in order; each
/// SolveResult carries its own lower bound, evaluation ratio and wall-clock
/// solve time (timed on the worker that ran it, shared Stopwatch timebase).
/// If any instance throws, the remaining instances still run to completion
/// and the first failing index's exception is rethrown afterwards.
REDIST_DETERMINISTIC
std::vector<SolveResult> solve_kpbs_batch(
    const std::vector<KpbsRequest>& requests, const BatchOptions& options = {});

}  // namespace redist
