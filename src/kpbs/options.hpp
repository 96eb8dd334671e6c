// Unified solver options/result surface.
//
// Every way of invoking the K-PBS solvers — single solve, the daemon, the
// CLI, benchmarks — shares one options struct and one result struct, so a new
// knob lands everywhere at once instead of accreting another positional
// parameter (the fate of the original positional signature, which rode out
// its deprecation window and has been removed; tools/redist_analyze bans
// its reintroduction).
#pragma once

#include <cstdint>
#include <string>

#include "common/contract_annotations.hpp"
#include "common/flags.hpp"
#include "common/types.hpp"
#include "kpbs/lower_bound.hpp"
#include "kpbs/schedule.hpp"

REDIST_LAYER("kpbs");

namespace redist {

enum class Algorithm {
  kGGP,   ///< Generic Graph Peeling (arbitrary perfect matchings).
  kOGGP,  ///< Optimized GGP (bottleneck perfect matchings).
};

std::string algorithm_name(Algorithm a);

/// Everything a K-PBS solve needs besides the demand graph. Aggregate on
/// purpose: call sites write solve_kpbs(g, {k, beta, algorithm}) or name
/// the fields they care about.
struct SolverOptions {
  int k = 1;           ///< simultaneous communications (clamped to
                       ///< [1, min(n1, n2)] like the solvers always did)
  Weight beta = 1;     ///< per-step setup cost, same units as edge weights
  Algorithm algorithm = Algorithm::kOGGP;
  /// Flight-recorder identity (obs/journal.hpp): 0 (the default) makes
  /// solve_kpbs allocate a fresh process-unique ID; callers that own a
  /// larger causal unit (robust socket runs re-solving residual traffic)
  /// pass their own so journal events across layers join on one ID.
  /// Never feeds back into scheduling.
  std::uint64_t solve_id = 0;
};

/// A solved instance plus the quality/latency facts every caller was
/// recomputing by hand around the old API.
struct SolveResult {
  Schedule schedule;
  LowerBound lower_bound;         ///< kpbs_lower_bound(demand, k, beta)
  double evaluation_ratio = 1.0;  ///< cost / lower bound (>= 1)
  double solve_ms = 0.0;          ///< wall clock, Stopwatch timebase
  std::uint64_t solve_id = 0;     ///< the journal ID this solve ran under
};

/// Parser shared by the CLI, benchmarks and tests (the one place the
/// --algo vocabulary is spelled out).
Algorithm parse_algorithm(const std::string& name);

/// Reads --k, --beta and --algo (each optional, falling back to
/// `defaults`) — the single flag surface for every solver entry point.
SolverOptions solver_options_from_flags(Flags& flags,
                                        const SolverOptions& defaults = {});

}  // namespace redist
