// Scenario-matrix tests (workload/scenario.hpp + robust/storm.hpp): spec
// validation, bit-determinism of materialization, per-family structural
// properties, spec_text round-trips, the builtin matrix the sweep
// harness keys on, and storm-rule expansion.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/error.hpp"
#include "common/math.hpp"
#include "oracle/scenario_reader.hpp"
#include "robust/storm.hpp"
#include "workload/scenario.hpp"

namespace redist {
namespace {

ScenarioSpec builtin(const std::string& name, double scale = 1.0) {
  for (const ScenarioSpec& spec : builtin_scenarios(scale)) {
    if (spec.name == name) return spec;
  }
  throw Error("no builtin scenario named " + name);
}

// The kind line of a spec_text names its kind: every kind has its own
// one-token name, and reading the name back gives the kind.
TEST(ScenarioKindNames, RoundTrip) {
  std::set<std::string> names;
  for (const ScenarioKind kind :
       {ScenarioKind::kUniform, ScenarioKind::kHeterogeneous,
        ScenarioKind::kAsymmetric, ScenarioKind::kHotspot,
        ScenarioKind::kSparseGiant, ScenarioKind::kFaultStorm}) {
    const std::string name = scenario_kind_name(kind);
    EXPECT_TRUE(names.insert(name).second) << name;
    ScenarioSpec spec;
    spec.kind = kind;
    EXPECT_EQ(oracle::read_scenario_text(scenario_to_string(spec)).kind,
              kind);
  }
  EXPECT_THROW(scenario_kind_name(static_cast<ScenarioKind>(99)), Error);
}

TEST(ScenarioSpecValidate, RejectsOutOfDomainFields) {
  const ScenarioSpec good;
  EXPECT_NO_THROW(good.validate());

  ScenarioSpec s = good;
  s.name = "";
  EXPECT_THROW(s.validate(), Error);
  s = good;
  s.name = "Has Spaces!";
  EXPECT_THROW(s.validate(), Error);
  s = good;
  s.senders = 0;
  EXPECT_THROW(s.validate(), Error);
  s = good;
  s.edges = -1;
  EXPECT_THROW(s.validate(), Error);
  s = good;
  s.edges = s.senders * s.receivers + 1;
  EXPECT_THROW(s.validate(), Error);
  s = good;
  s.min_bytes = 0;
  EXPECT_THROW(s.validate(), Error);
  s = good;
  s.max_bytes = s.min_bytes - 1;
  EXPECT_THROW(s.validate(), Error);
  s = good;
  s.bytes_per_unit = 0;
  EXPECT_THROW(s.validate(), Error);
  s = good;
  s.k = 0;
  EXPECT_THROW(s.validate(), Error);
  s = good;
  s.beta = -1;
  EXPECT_THROW(s.validate(), Error);
  s = good;
  s.hot_share = 1.0;
  EXPECT_THROW(s.validate(), Error);
  s = good;
  s.het_spread = 0.5;
  EXPECT_THROW(s.validate(), Error);
  s = good;
  s.storm_intensity = 1.5;
  EXPECT_THROW(s.validate(), Error);
}

TEST(ScenarioMaterialize, BitDeterministicForFixedSpec) {
  for (const ScenarioSpec& spec : builtin_scenarios(0.1)) {
    const ScenarioWorkload a = materialize_scenario(spec);
    const ScenarioWorkload b = materialize_scenario(spec);
    ASSERT_EQ(a.traffic.total(), b.traffic.total()) << spec.name;
    for (NodeId i = 0; i < spec.senders; ++i) {
      for (NodeId j = 0; j < spec.receivers; ++j) {
        ASSERT_EQ(a.traffic.at(i, j), b.traffic.at(i, j))
            << spec.name << " pair " << i << "->" << j;
      }
    }
    ASSERT_EQ(a.demand.edge_count(), b.demand.edge_count()) << spec.name;
    for (EdgeId e = 0; e < a.demand.edge_count(); ++e) {
      ASSERT_EQ(a.demand.edge(e).left, b.demand.edge(e).left);
      ASSERT_EQ(a.demand.edge(e).right, b.demand.edge(e).right);
      ASSERT_EQ(a.demand.edge(e).weight, b.demand.edge(e).weight);
    }
    ASSERT_EQ(a.t1_scale, b.t1_scale) << spec.name;
    ASSERT_EQ(a.t2_scale, b.t2_scale) << spec.name;
  }
}

TEST(ScenarioMaterialize, SeedChangesTheInstance) {
  ScenarioSpec spec = builtin("uniform", 0.5);
  const ScenarioWorkload a = materialize_scenario(spec);
  spec.seed += 1;
  const ScenarioWorkload b = materialize_scenario(spec);
  bool any_diff = false;
  for (NodeId i = 0; i < spec.senders && !any_diff; ++i) {
    for (NodeId j = 0; j < spec.receivers && !any_diff; ++j) {
      any_diff = a.traffic.at(i, j) != b.traffic.at(i, j);
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(ScenarioMaterialize, DemandMirrorsTrafficWithCeilWeights) {
  for (const ScenarioSpec& spec : builtin_scenarios(0.1)) {
    const ScenarioWorkload w = materialize_scenario(spec);
    std::size_t nonzero = 0;
    for (NodeId i = 0; i < spec.senders; ++i) {
      for (NodeId j = 0; j < spec.receivers; ++j) {
        if (w.traffic.at(i, j) > 0) ++nonzero;
      }
    }
    ASSERT_EQ(w.demand.edge_count(), nonzero) << spec.name;
    for (EdgeId e = 0; e < w.demand.edge_count(); ++e) {
      const Edge& edge = w.demand.edge(e);
      const Bytes bytes = w.traffic.at(edge.left, edge.right);
      ASSERT_GT(bytes, 0) << spec.name;
      ASSERT_GE(edge.weight, 1) << spec.name;
      if (w.t1_scale.empty()) {
        ASSERT_EQ(edge.weight, ceil_div(bytes, spec.bytes_per_unit))
            << spec.name << " pair " << edge.left << "->" << edge.right;
      }
    }
  }
}

TEST(ScenarioFamilies, HeterogeneousScalesStayWithinSpread) {
  const ScenarioSpec spec = builtin("heterogeneous", 0.5);
  const ScenarioWorkload w = materialize_scenario(spec);
  ASSERT_EQ(w.t1_scale.size(), static_cast<std::size_t>(spec.senders));
  ASSERT_EQ(w.t2_scale.size(), static_cast<std::size_t>(spec.receivers));
  const double lo = 1.0 / std::sqrt(spec.het_spread) - 1e-9;
  const double hi = std::sqrt(spec.het_spread) + 1e-9;
  for (const std::vector<double>* scales : {&w.t1_scale, &w.t2_scale}) {
    for (const double s : *scales) {
      ASSERT_GE(s, lo);
      ASSERT_LE(s, hi);
    }
  }
  // The weights must actually carry the heterogeneity: a slower pair gets a
  // proportionally longer duration than the homogeneous ceil would.
  bool any_slowed = false;
  for (EdgeId e = 0; e < w.demand.edge_count(); ++e) {
    const Edge& edge = w.demand.edge(e);
    const double speed =
        std::min(w.t1_scale[static_cast<std::size_t>(edge.left)],
                 w.t2_scale[static_cast<std::size_t>(edge.right)]);
    const Bytes bytes = w.traffic.at(edge.left, edge.right);
    const Weight expect = std::max<Weight>(
        1, static_cast<Weight>(std::ceil(
               static_cast<double>(bytes) /
               (static_cast<double>(spec.bytes_per_unit) * speed))));
    ASSERT_EQ(edge.weight, expect);
    if (edge.weight > ceil_div(bytes, spec.bytes_per_unit)) any_slowed = true;
  }
  EXPECT_TRUE(any_slowed);
}

TEST(ScenarioFamilies, AsymmetricClusterIsConsolidationShaped) {
  const ScenarioSpec spec = builtin("asymmetric");
  EXPECT_GE(spec.senders, 4 * spec.receivers);
  const ScenarioWorkload w = materialize_scenario(spec);
  EXPECT_EQ(w.traffic.senders(), spec.senders);
  EXPECT_EQ(w.traffic.receivers(), spec.receivers);
}

TEST(ScenarioFamilies, HotspotConcentratesTrafficOnOneReceiver) {
  const ScenarioSpec spec = builtin("hotspot", 0.5);
  const ScenarioWorkload w = materialize_scenario(spec);
  Bytes total = 0;
  Bytes hottest = 0;
  for (NodeId j = 0; j < spec.receivers; ++j) {
    Bytes col = 0;
    for (NodeId i = 0; i < spec.senders; ++i) col += w.traffic.at(i, j);
    total += col;
    hottest = std::max(hottest, col);
  }
  ASSERT_GT(total, 0);
  // hot_share = 0.8; allow sampling slack but require real concentration.
  EXPECT_GE(static_cast<double>(hottest),
            0.6 * static_cast<double>(total));
}

TEST(ScenarioFamilies, SparseGiantHitsEdgeTargetAndStaysSparse) {
  const ScenarioSpec spec = builtin("sparse_giant", 0.25);
  const ScenarioWorkload w = materialize_scenario(spec);
  ASSERT_EQ(w.demand.edge_count(), static_cast<EdgeId>(spec.edges));
  const double density =
      static_cast<double>(spec.edges) /
      (static_cast<double>(spec.senders) * static_cast<double>(spec.receivers));
  EXPECT_LT(density, 0.05);
  EXPECT_GT(spec.edges, spec.senders);  // m >> n regime, scaled
}

TEST(ScenarioSerialization, RoundTripsEveryBuiltin) {
  for (const ScenarioSpec& spec : builtin_scenarios()) {
    const std::string text = scenario_to_string(spec);
    const ScenarioSpec back = oracle::read_scenario_text(text);
    EXPECT_EQ(back.name, spec.name);
    EXPECT_EQ(back.kind, spec.kind);
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_EQ(back.senders, spec.senders);
    EXPECT_EQ(back.receivers, spec.receivers);
    EXPECT_EQ(back.edges, spec.edges);
    EXPECT_EQ(back.min_bytes, spec.min_bytes);
    EXPECT_EQ(back.max_bytes, spec.max_bytes);
    EXPECT_EQ(back.bytes_per_unit, spec.bytes_per_unit);
    EXPECT_EQ(back.k, spec.k);
    EXPECT_EQ(back.beta, spec.beta);
    EXPECT_DOUBLE_EQ(back.hot_share, spec.hot_share);
    EXPECT_DOUBLE_EQ(back.het_spread, spec.het_spread);
    EXPECT_DOUBLE_EQ(back.storm_intensity, spec.storm_intensity);
    // Serialized form is a fixed point.
    EXPECT_EQ(scenario_to_string(back), text);
  }
}

// Seven significant digits: at the stream's default six, hot_share
// 0.9999999 printed as 1, outside validate()'s (0, 1), and het_spread
// 1.0000004 as 1. The text must name the spec exactly.
TEST(ScenarioSerialization, SevenSignificantDigitsRoundTripExactly) {
  ScenarioSpec spec;
  spec.hot_share = 0.9999999;
  spec.het_spread = 1.0000004;
  spec.storm_intensity = 0.1234567;
  const std::string text = scenario_to_string(spec);
  EXPECT_NE(text.find("hot_share 0.9999999\n"), std::string::npos) << text;
  EXPECT_NE(text.find("het_spread 1.0000004\n"), std::string::npos) << text;
  EXPECT_NE(text.find("storm 0.1234567\n"), std::string::npos) << text;
  const ScenarioSpec back = oracle::read_scenario_text(text);
  EXPECT_EQ(back.hot_share, spec.hot_share);
  EXPECT_EQ(back.het_spread, spec.het_spread);
  EXPECT_EQ(back.storm_intensity, spec.storm_intensity);
  EXPECT_NO_THROW(back.validate());
  EXPECT_EQ(scenario_to_string(back), text);
}

TEST(ScenarioBuiltins, MatrixCoversTheAdversarialFamilies) {
  const std::vector<ScenarioSpec> specs = builtin_scenarios();
  ASSERT_GE(specs.size(), 5u);
  std::set<std::string> names;
  std::set<std::uint64_t> seeds;
  std::set<ScenarioKind> kinds;
  for (const ScenarioSpec& spec : specs) {
    EXPECT_NO_THROW(spec.validate()) << spec.name;
    names.insert(spec.name);
    seeds.insert(spec.seed);
    kinds.insert(spec.kind);
  }
  EXPECT_EQ(names.size(), specs.size());  // unique output file names
  EXPECT_EQ(seeds.size(), specs.size());  // no accidental instance reuse
  for (const ScenarioKind kind :
       {ScenarioKind::kHeterogeneous, ScenarioKind::kAsymmetric,
        ScenarioKind::kHotspot, ScenarioKind::kSparseGiant,
        ScenarioKind::kFaultStorm}) {
    EXPECT_TRUE(kinds.count(kind)) << scenario_kind_name(kind);
  }
}

TEST(ScenarioBuiltins, ScaleShrinksSizesButKeepsNames) {
  const std::vector<ScenarioSpec> full = builtin_scenarios(1.0);
  const std::vector<ScenarioSpec> smoke = builtin_scenarios(0.25);
  ASSERT_EQ(full.size(), smoke.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].name, smoke[i].name);
    EXPECT_EQ(full[i].seed, smoke[i].seed);
    EXPECT_LE(smoke[i].senders, full[i].senders);
    EXPECT_LE(smoke[i].receivers, full[i].receivers);
  }
  // sparse_giant genuinely shrinks (fault_storm is pinned small by design).
  EXPECT_LT(builtin("sparse_giant", 0.25).senders,
            builtin("sparse_giant", 1.0).senders);
  EXPECT_THROW(builtin_scenarios(0.0), Error);
  EXPECT_THROW(builtin_scenarios(1.5), Error);
}

TEST(StormRules, ZeroIntensityExpandsToNothing) {
  robust::StormProfile calm;
  calm.intensity = 0.0;
  EXPECT_TRUE(robust::storm_rules(calm).empty());
  robust::StormProfile bad;
  bad.intensity = 1.5;
  EXPECT_THROW(robust::storm_rules(bad), Error);
}

TEST(StormRules, ExpandsEveryFaultClassWithBoundedCounts) {
  robust::StormProfile profile;
  profile.intensity = 0.3;
  const std::vector<robust::FaultRule> rules = robust::storm_rules(profile);
  ASSERT_EQ(rules.size(), 4u);
  std::set<robust::FaultKind> kinds;
  for (const robust::FaultRule& rule : rules) {
    kinds.insert(rule.kind);
    EXPECT_DOUBLE_EQ(rule.probability, profile.intensity);
    switch (rule.kind) {
      case robust::FaultKind::kConnectRefuse:
        EXPECT_EQ(rule.site, robust::FaultSite::kConnect);
        EXPECT_EQ(rule.count, profile.connect_refusals);
        break;
      case robust::FaultKind::kReset:
        EXPECT_EQ(rule.site, robust::FaultSite::kSend);
        EXPECT_EQ(rule.begin, profile.data_phase_begin);
        EXPECT_EQ(rule.count, 1u);  // at most one mid-flight cut per storm
        EXPECT_EQ(rule.at_bytes, profile.reset_after_bytes);
        break;
      case robust::FaultKind::kStall:
        EXPECT_EQ(rule.site, robust::FaultSite::kRecv);
        EXPECT_EQ(rule.begin, profile.data_phase_begin);
        EXPECT_EQ(rule.count, 1u);
        EXPECT_DOUBLE_EQ(rule.stall_ms, profile.stall_ms);
        break;
      case robust::FaultKind::kShortWrite:
        EXPECT_EQ(rule.site, robust::FaultSite::kSend);
        EXPECT_EQ(rule.begin, 0u);
        EXPECT_EQ(rule.count, profile.horizon);
        EXPECT_EQ(rule.chunk_cap, profile.short_write_cap);
        break;
      case robust::FaultKind::kCorrupt:
        // A storm must stay recoverable, and wrong bytes cannot be
        // retransmitted.
        ADD_FAILURE() << "a storm injected a corrupted byte";
        break;
    }
  }
  EXPECT_EQ(kinds.size(), 4u);
}

TEST(StormRules, ArmStormInjectsDeterministically) {
  robust::StormProfile profile;
  profile.intensity = 1.0;  // every eligible op fires
  profile.connect_refusals = 1;
  robust::FaultInjector injector(77);
  robust::arm_storm(injector, profile);
  const robust::FaultPlan first = injector.plan_op(robust::FaultSite::kConnect);
  EXPECT_TRUE(first.refuse);
  const robust::FaultPlan second =
      injector.plan_op(robust::FaultSite::kConnect);
  EXPECT_FALSE(second.refuse);  // refusal budget exhausted
  const robust::FaultPlan send = injector.plan_op(robust::FaultSite::kSend);
  EXPECT_EQ(send.chunk_cap, profile.short_write_cap);
  EXPECT_FALSE(send.reset);  // data phase has not begun
  EXPECT_GE(injector.injected_count(), 2u);
}

}  // namespace
}  // namespace redist
