// Declarative scenario specifications — the heterogeneous & adversarial
// workload matrix.
//
// The paper evaluates GGP/OGGP on uniform random weights over symmetric
// clusters only. Real deployments are messier, and the related star-platform
// work (Marchal–Rehn–Robert–Vivien, see PAPERS.md) shows heterogeneous port
// throughputs change which scheduler wins. A ScenarioSpec names one
// adversarial workload family instance — seeded, reproducible bit-for-bit
// anywhere, and printed into every sweep result (spec_text) so a result
// names the instance it measured — and materialize() turns it into
// everything below the platform layer: the byte-level traffic matrix, the
// integer demand graph the solvers consume, and per-node relative card
// speeds.
//
// Families:
//  * uniform        — the paper's control: all-pairs uniform sizes;
//  * heterogeneous  — per-node card throughputs differ (t1 != t2 per node);
//    comm (i, j) runs at min(sender, receiver) speed, so the demand weights
//    already carry the heterogeneity the solver must absorb;
//  * asymmetric     — n1 >> n2 (consolidation-shaped cluster sizes);
//  * hotspot        — one receiver owns ~80% of all traffic (stresses the
//    1-port constraint and the W(G) term of the lower bound);
//  * sparse_giant   — n in the thousands, m >> n but m << n^2 (stresses
//    per-step matching cost and peeling length);
//  * fault_storm    — uniform traffic whose *execution* runs under a
//    deterministic fault storm (src/robust); the spec carries the storm
//    intensity, the runtime layers it on the FaultInjector.
//
// Layering: workload sits below kpbs/netsim/robust, so this header speaks
// only common + graph vocabulary. Platform construction lives in
// netsim/platform.hpp (heterogeneous_platform) and fault-rule construction
// in robust/storm.hpp; tools/redist_sweep bridges the three.
#pragma once

#include <string>
#include <vector>

#include "common/contract_annotations.hpp"
#include "common/rng.hpp"
#include "graph/bipartite_graph.hpp"
#include "graph/traffic_matrix.hpp"

REDIST_LAYER("workload");

namespace redist {

enum class ScenarioKind {
  kUniform,
  kHeterogeneous,
  kAsymmetric,
  kHotspot,
  kSparseGiant,
  kFaultStorm,
};

std::string scenario_kind_name(ScenarioKind kind);

/// One named, seeded, fully declarative workload. Everything the sweep
/// harness and the regression baselines key on comes from here — two specs
/// that print identically materialize identically on every platform.
struct ScenarioSpec {
  std::string name = "uniform";  ///< unique id; BENCH_sweep_<name>.json
  ScenarioKind kind = ScenarioKind::kUniform;
  std::uint64_t seed = 1;

  NodeId senders = 8;
  NodeId receivers = 8;
  /// Target non-zero pairs; 0 = dense all-pairs. Sparse families clamp to
  /// senders * receivers.
  int edges = 0;

  /// Per-pair payload range, in bytes.
  Bytes min_bytes = 1'000;
  Bytes max_bytes = 20'000;
  /// Bytes per abstract solver time unit (demand weight granularity).
  Bytes bytes_per_unit = 1'000;

  int k = 4;
  Weight beta = 1;

  double hot_share = 0.8;     ///< kHotspot: hot receiver's traffic fraction
  double het_spread = 4.0;    ///< kHeterogeneous: max/min card speed ratio
  double storm_intensity = 0; ///< kFaultStorm: per-operation fault probability

  /// Throws redist::Error when any field is out of its documented domain
  /// (non-positive sizes, hot_share outside (0,1), spread < 1, ...).
  void validate() const;
};

/// Everything a scenario materializes below the platform layer. `t1_scale`
/// / `t2_scale` are *relative* per-node card speeds (1.0 = nominal; empty =
/// homogeneous); netsim/platform.hpp turns them into absolute throughputs.
struct ScenarioWorkload {
  TrafficMatrix traffic;   ///< byte-level pattern (netsim / socket runtime)
  BipartiteGraph demand;   ///< integer demand the K-PBS solvers consume
  std::vector<double> t1_scale;
  std::vector<double> t2_scale;

  ScenarioWorkload(NodeId senders, NodeId receivers)
      : traffic(senders, receivers), demand(senders, receivers) {}
};

/// Deterministically materializes `spec` (validates it first). The demand
/// weight of pair (i, j) is time_units(bytes, bytes_per_unit * pair_speed)
/// (graph/traffic_matrix.hpp) where pair_speed = min(t1_scale[i],
/// t2_scale[j]) — heterogeneity folds into the durations the solver
/// actually schedules.
ScenarioWorkload materialize_scenario(const ScenarioSpec& spec);

/// The spec as line-oriented text —
///   scenario <name>
///   kind <kind-name>
///   seed <u64>
///   nodes <senders> <receivers>
///   edges <int>
///   bytes <min> <max> <per-unit>
///   solver <k> <beta>
///   hot_share <double>
///   het_spread <double>
///   storm <double>
/// Validates first: an out-of-domain spec throws redist::Error instead of
/// being written. The sweep records this text as each result's spec_text;
/// nothing in the library reads it back.
std::string scenario_to_string(const ScenarioSpec& spec);

/// The committed scenario matrix driven by tools/redist_sweep and the
/// regression baselines under bench/baselines/. `scale` in (0, 1] shrinks
/// node/edge counts proportionally (CI smoke runs scale < 1); names stay
/// stable across scales so BENCH_sweep_<name>.json files stay diffable.
std::vector<ScenarioSpec> builtin_scenarios(double scale = 1.0);

}  // namespace redist
