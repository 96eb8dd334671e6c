#include "workload/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "workload/patterns.hpp"
#include "workload/uniform_traffic.hpp"

namespace redist {

namespace {

// Samples `target` distinct (sender, receiver) pairs by rejection — the
// families that use it keep the density far below 1, so expected work is
// O(target). Emission order is the sampling order (deterministic in rng).
std::vector<std::pair<NodeId, NodeId>> sample_pairs(Rng& rng, NodeId senders,
                                                    NodeId receivers,
                                                    std::int64_t target) {
  const std::int64_t all =
      static_cast<std::int64_t>(senders) * static_cast<std::int64_t>(receivers);
  target = std::min(target, all);
  std::unordered_set<std::int64_t> seen;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(static_cast<std::size_t>(target));
  while (static_cast<std::int64_t>(pairs.size()) < target) {
    const NodeId i = static_cast<NodeId>(rng.uniform_int(0, senders - 1));
    const NodeId j = static_cast<NodeId>(rng.uniform_int(0, receivers - 1));
    const std::int64_t key =
        static_cast<std::int64_t>(i) * static_cast<std::int64_t>(receivers) + j;
    if (seen.insert(key).second) pairs.emplace_back(i, j);
  }
  return pairs;
}

// Log-uniform per-node relative speed in [1/sqrt(spread), sqrt(spread)], so
// the max/min ratio across nodes is bounded by `spread` and the nominal
// speed stays in the middle of the range.
std::vector<double> heterogeneous_scales(Rng& rng, NodeId nodes,
                                         double spread) {
  const double half_log = 0.5 * std::log(spread);
  std::vector<double> scale(static_cast<std::size_t>(nodes));
  for (double& s : scale) {
    s = std::exp(rng.uniform_real(-half_log, half_log));
  }
  return scale;
}

}  // namespace

std::string scenario_kind_name(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kUniform: return "uniform";
    case ScenarioKind::kHeterogeneous: return "heterogeneous";
    case ScenarioKind::kAsymmetric: return "asymmetric";
    case ScenarioKind::kHotspot: return "hotspot";
    case ScenarioKind::kSparseGiant: return "sparse_giant";
    case ScenarioKind::kFaultStorm: return "fault_storm";
  }
  throw Error("unknown ScenarioKind");
}

void ScenarioSpec::validate() const {
  if (name.empty()) throw Error("scenario: name must be non-empty");
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '-';
    if (!ok) {
      throw Error("scenario: name must be [a-z0-9_-], got: " + name);
    }
  }
  if (senders < 1 || receivers < 1) {
    throw Error("scenario: cluster sizes must be >= 1");
  }
  const std::int64_t all =
      static_cast<std::int64_t>(senders) * static_cast<std::int64_t>(receivers);
  if (edges < 0 || edges > all) {
    throw Error("scenario: edges must be in [0, senders*receivers]");
  }
  if (min_bytes < 1 || max_bytes < min_bytes) {
    throw Error("scenario: need 1 <= min_bytes <= max_bytes");
  }
  if (bytes_per_unit < 1) throw Error("scenario: bytes_per_unit must be >= 1");
  if (k < 1) throw Error("scenario: k must be >= 1");
  if (beta < 0) throw Error("scenario: beta must be >= 0");
  if (!(hot_share > 0.0 && hot_share < 1.0)) {
    throw Error("scenario: hot_share must be in (0, 1)");
  }
  if (!(het_spread >= 1.0) || !std::isfinite(het_spread)) {
    throw Error("scenario: het_spread must be >= 1");
  }
  if (!(storm_intensity >= 0.0 && storm_intensity <= 1.0)) {
    throw Error("scenario: storm_intensity must be in [0, 1]");
  }
}

ScenarioWorkload materialize_scenario(const ScenarioSpec& spec) {
  spec.validate();
  Rng rng(spec.seed);
  ScenarioWorkload out(spec.senders, spec.receivers);

  switch (spec.kind) {
    case ScenarioKind::kUniform:
    case ScenarioKind::kAsymmetric:
    case ScenarioKind::kFaultStorm:
    case ScenarioKind::kHeterogeneous: {
      if (spec.edges == 0) {
        out.traffic = uniform_all_pairs_traffic(
            rng, spec.senders, spec.receivers, spec.min_bytes, spec.max_bytes);
      } else {
        for (const auto& [i, j] :
             sample_pairs(rng, spec.senders, spec.receivers, spec.edges)) {
          out.traffic.set(i, j, rng.uniform_int(spec.min_bytes,
                                                spec.max_bytes));
        }
      }
      break;
    }
    case ScenarioKind::kHotspot: {
      const NodeId hot =
          static_cast<NodeId>(rng.uniform_int(0, spec.receivers - 1));
      out.traffic = hotspot_traffic(rng, spec.senders, spec.receivers, hot,
                                    spec.hot_share, spec.max_bytes);
      break;
    }
    case ScenarioKind::kSparseGiant: {
      const std::int64_t target =
          spec.edges > 0
              ? spec.edges
              : 2 * static_cast<std::int64_t>(
                        std::max(spec.senders, spec.receivers));
      for (const auto& [i, j] :
           sample_pairs(rng, spec.senders, spec.receivers, target)) {
        out.traffic.set(i, j,
                        rng.uniform_int(spec.min_bytes, spec.max_bytes));
      }
      break;
    }
  }

  if (spec.kind == ScenarioKind::kHeterogeneous) {
    out.t1_scale = heterogeneous_scales(rng, spec.senders, spec.het_spread);
    out.t2_scale = heterogeneous_scales(rng, spec.receivers, spec.het_spread);
  }

  // Demand graph: one edge per non-zero pair, duration at the pair's speed.
  for (NodeId i = 0; i < spec.senders; ++i) {
    for (NodeId j = 0; j < spec.receivers; ++j) {
      const Bytes bytes = out.traffic.at(i, j);
      if (bytes <= 0) continue;
      double speed = 1.0;
      if (!out.t1_scale.empty()) {
        speed = std::min(out.t1_scale[static_cast<std::size_t>(i)],
                         out.t2_scale[static_cast<std::size_t>(j)]);
      }
      out.demand.add_edge(
          i, j,
          time_units(bytes,
                     static_cast<double>(spec.bytes_per_unit) * speed));
    }
  }
  return out;
}

namespace {

// The shortest text that reads back as exactly `value`, so a spec's text
// names that spec: six significant digits printed 0.9999999 as 1.
std::string round_trip(double value) {
  char text[32];
  const std::to_chars_result end =
      std::to_chars(text, text + sizeof(text), value);
  REDIST_CHECK(end.ec == std::errc());
  return std::string(text, end.ptr);
}

}  // namespace

std::string scenario_to_string(const ScenarioSpec& spec) {
  spec.validate();
  std::ostringstream os;
  os << "scenario " << spec.name << '\n'
     << "kind " << scenario_kind_name(spec.kind) << '\n'
     << "seed " << spec.seed << '\n'
     << "nodes " << spec.senders << ' ' << spec.receivers << '\n'
     << "edges " << spec.edges << '\n'
     << "bytes " << spec.min_bytes << ' ' << spec.max_bytes << ' '
     << spec.bytes_per_unit << '\n'
     << "solver " << spec.k << ' ' << spec.beta << '\n'
     << "hot_share " << round_trip(spec.hot_share) << '\n'
     << "het_spread " << round_trip(spec.het_spread) << '\n'
     << "storm " << round_trip(spec.storm_intensity) << '\n';
  return os.str();
}

std::vector<ScenarioSpec> builtin_scenarios(double scale) {
  if (!(scale > 0.0 && scale <= 1.0)) {
    throw Error("builtin_scenarios: scale must be in (0, 1]");
  }
  const auto nodes = [scale](NodeId full) {
    return std::max<NodeId>(2, static_cast<NodeId>(
                                   std::lround(static_cast<double>(full) *
                                               scale)));
  };
  const auto count = [scale](int full) {
    return std::max(4, static_cast<int>(std::lround(static_cast<double>(full) *
                                                    scale)));
  };
  std::vector<ScenarioSpec> specs;

  ScenarioSpec uniform;
  uniform.name = "uniform";
  uniform.kind = ScenarioKind::kUniform;
  uniform.seed = 0x5CE11;
  uniform.senders = nodes(16);
  uniform.receivers = nodes(16);
  uniform.min_bytes = 1'000;
  uniform.max_bytes = 20'000;
  uniform.bytes_per_unit = 1'000;
  uniform.k = 4;
  uniform.beta = 1;
  specs.push_back(uniform);

  ScenarioSpec het = uniform;
  het.name = "heterogeneous";
  het.kind = ScenarioKind::kHeterogeneous;
  het.seed = 0x5CE12;
  het.het_spread = 4.0;
  specs.push_back(het);

  ScenarioSpec asym = uniform;
  asym.name = "asymmetric";
  asym.kind = ScenarioKind::kAsymmetric;
  asym.seed = 0x5CE13;
  asym.senders = nodes(48);
  asym.receivers = nodes(6);
  asym.k = 6;
  specs.push_back(asym);

  ScenarioSpec hotspot = uniform;
  hotspot.name = "hotspot";
  hotspot.kind = ScenarioKind::kHotspot;
  hotspot.seed = 0x5CE14;
  hotspot.hot_share = 0.8;
  specs.push_back(hotspot);

  ScenarioSpec sparse;
  sparse.name = "sparse_giant";
  sparse.kind = ScenarioKind::kSparseGiant;
  sparse.seed = 0x5CE15;
  sparse.senders = nodes(4096);
  sparse.receivers = nodes(4096);
  sparse.edges = count(12288);  // m = 3n >> n, still << n^2
  sparse.min_bytes = 1'000;
  sparse.max_bytes = 4'000;  // small weights: peeling length stays bounded
  sparse.bytes_per_unit = 1'000;
  sparse.k = 16;
  sparse.beta = 1;
  specs.push_back(sparse);

  ScenarioSpec storm;
  storm.name = "fault_storm";
  storm.kind = ScenarioKind::kFaultStorm;
  storm.seed = 0x5CE16;
  // Socket-executed: sizes stay small at every scale (real loopback TCP).
  storm.senders = 4;
  storm.receivers = 4;
  storm.min_bytes = 5'000;
  storm.max_bytes = 20'000;
  storm.bytes_per_unit = 8'000;
  storm.k = 2;
  storm.beta = 1;
  storm.storm_intensity = 0.3;
  specs.push_back(storm);

  return specs;
}

}  // namespace redist
