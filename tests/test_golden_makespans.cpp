// Golden-makespan regression corpus: committed instance files
// (tests/data/golden_*.graph — golden_01..10 produced by `redist_cli
// generate` with the recorded seeds, golden_11..13 materialized from the
// builtin scenario matrix) whose exact GGP/OGGP step counts and costs were captured
// from the reference solver. Any change to normalization, regularization,
// peeling order, matching tie-breaking, or extraction that alters a single
// schedule shows up here as an exact-value diff — for solve_kpbs and for
// the test oracle (tests/oracle), which must agree byte for byte. The
// oracle's OGGP peel is production's with every step audited against the
// optimal bottleneck, so the "cold" rows also check that contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/graphio.hpp"
#include "kpbs/regularize.hpp"
#include "kpbs/schedule_io.hpp"
#include "kpbs/solver.hpp"
#include "oracle/bottleneck_oracle.hpp"
#include "workload/scenario.hpp"
#include "workload/uniform_traffic.hpp"

#ifndef REDIST_TEST_DATA_DIR
#error "REDIST_TEST_DATA_DIR must point at tests/data"
#endif

namespace redist {
namespace {

struct GoldenCase {
  const char* file;  // relative to tests/data
  int k;
  Weight beta;
  std::size_t ggp_steps;
  Weight ggp_cost;
  std::size_t oggp_steps;
  Weight oggp_cost;
};

// Captured from the reference solver; see the generation parameters
// in docs/PERF.md. golden_01 is a deliberate degenerate corner (one edge).
// OGGP rows pin the warm-repaired peel's choice among bottleneck-optimal
// matchings; a change to that choice moves them.
constexpr GoldenCase kGolden[] = {
    {"golden_01.graph", 3, 1, 1, 3, 1, 3},
    {"golden_02.graph", 4, 1, 16, 83, 12, 79},
    {"golden_03.graph", 4, 2, 24, 528, 20, 520},
    {"golden_04.graph", 6, 1, 66, 55319, 48, 55301},
    {"golden_05.graph", 2, 0, 4, 6, 4, 6},
    {"golden_06.graph", 1, 5, 14, 511, 14, 511},
    {"golden_07.graph", 8, 1, 82, 236, 27, 181},
    {"golden_08.graph", 3, 10, 16, 1358, 12, 1318},
    {"golden_09.graph", 5, 1, 11, 44, 9, 42},
    {"golden_10.graph", 2, 100, 5, 3456, 4, 3356},
    // Adversarial scenario-matrix instances (workload/scenario.hpp): the
    // demand graphs of the builtin heterogeneous (scale 0.5), hotspot
    // (scale 0.5) and sparse_giant (scale 0.05) scenarios. Heterogeneity is
    // already folded into the weights; hotspot is near-degenerate (one
    // receiver serializes ~80% of the traffic, so GGP == OGGP here).
    {"golden_11.graph", 4, 1, 56, 311, 30, 285},
    {"golden_12.graph", 4, 1, 61, 189, 61, 189},
    {"golden_13.graph", 16, 1, 116, 233, 50, 167},
};

BipartiteGraph load_golden(const std::string& file) {
  const std::string path = std::string(REDIST_TEST_DATA_DIR) + "/" + file;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden instance: " << path;
  return read_graph(in);
}

// Which solver produces the schedule: the test oracle ("cold": GGP from
// scratch, OGGP audited step by step), or solve_kpbs's peeling engine.
enum class SolvePath { kOracle, kProduction };

Schedule solve_with(SolvePath path, const BipartiteGraph& g,
                    const GoldenCase& c, Algorithm algo) {
  return path == SolvePath::kOracle
             ? oracle::solve(g, c.k, c.beta, algo)
             : solve_kpbs(g, {c.k, c.beta, algo}).schedule;
}

class GoldenMakespans : public ::testing::TestWithParam<SolvePath> {};

TEST_P(GoldenMakespans, ExactStepCountsAndCosts) {
  const SolvePath path = GetParam();
  for (const GoldenCase& c : kGolden) {
    const BipartiteGraph g = load_golden(c.file);
    const Schedule ggp = solve_with(path, g, c, Algorithm::kGGP);
    EXPECT_EQ(ggp.step_count(), c.ggp_steps) << c.file << " (ggp)";
    EXPECT_EQ(ggp.cost(c.beta), c.ggp_cost) << c.file << " (ggp)";
    validate_schedule(g, ggp, clamp_k(g, c.k));

    const Schedule oggp = solve_with(path, g, c, Algorithm::kOGGP);
    EXPECT_EQ(oggp.step_count(), c.oggp_steps) << c.file << " (oggp)";
    EXPECT_EQ(oggp.cost(c.beta), c.oggp_cost) << c.file << " (oggp)";
    validate_schedule(g, oggp, clamp_k(g, c.k));
  }
}

// OGGP never produces a costlier schedule than GGP on the corpus — the
// property the paper's Section 5 experiments rely on.
TEST(GoldenMakespans, OggpNeverWorseThanGgpOnCorpus) {
  for (const GoldenCase& c : kGolden) {
    EXPECT_LE(c.oggp_cost, c.ggp_cost) << c.file;
    EXPECT_LE(c.oggp_steps, c.ggp_steps) << c.file;
  }
}

// FNV-1a over a schedule's text form: equal digests, equal bytes.
std::uint64_t schedule_digest(const Schedule& schedule) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : schedule_to_string(schedule)) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

struct PinnedInstance {
  std::string name;
  BipartiteGraph demand;
  int k;
  Weight beta;
};

// The golden corpus, seeded sparse_giant demands at 1/32 scale, and dense
// daemon_mix-shaped instances (48x48, 1200 pairs, bytes U[1, 1000]).
std::vector<PinnedInstance> pinned_instances() {
  std::vector<PinnedInstance> out;
  for (const GoldenCase& c : kGolden) {
    out.push_back({c.file, load_golden(c.file), c.k, c.beta});
  }
  const std::vector<ScenarioSpec> specs = builtin_scenarios(1.0 / 32);
  const auto giant = std::find_if(
      specs.begin(), specs.end(),
      [](const ScenarioSpec& s) { return s.name == "sparse_giant"; });
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ScenarioSpec spec = *giant;
    spec.seed = seed;
    out.push_back({"sparse_giant seed " + std::to_string(seed),
                   materialize_scenario(spec).demand, spec.k, spec.beta});
  }
  constexpr NodeId kNodes = 48;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    std::vector<std::int64_t> pairs(static_cast<std::size_t>(kNodes * kNodes));
    std::iota(pairs.begin(), pairs.end(), 0);
    std::shuffle(pairs.begin(), pairs.end(), rng);
    BipartiteGraph demand(kNodes, kNodes);
    for (std::size_t i = 0; i < 1200; ++i) {
      demand.add_edge(static_cast<NodeId>(pairs[i] / kNodes),
                      static_cast<NodeId>(pairs[i] % kNodes),
                      rng.uniform_int(1, 1000));
    }
    out.push_back({"dense48 seed " + std::to_string(seed), std::move(demand),
                   8, 1});
  }
  // bench/e2e socket_mesh's shape (4x4 all pairs, 1-10 units, k = 2) and a
  // paper testbed shape (10x10, k = 3) with beta > 1.
  Rng mesh_rng(11);
  out.push_back({"socket_mesh 4x4",
                 uniform_all_pairs_traffic(mesh_rng, 4, 4, 1'000'000,
                                           10'000'000)
                     .to_graph(1e6),
                 2, 1});
  Rng testbed_rng(12);
  out.push_back({"testbed 10x10 beta 8",
                 uniform_all_pairs_traffic(testbed_rng, 10, 10, 10'000'000,
                                           100'000'000)
                     .to_graph(1e6),
                 3, 8});
  return out;
}

// Pins the exact bytes of every GGP and OGGP schedule solve_kpbs returns on
// the instances above, as captured before the OGGP snapshot followed the
// threshold (the socket_mesh and testbed rows: before the peel was
// deferred): how the peel reuses its solver state must not change them.
TEST(GoldenMakespans, PinnedScheduleDigests) {
  const std::vector<std::uint64_t> ggp = {
      0xe3385f5bb4ae9761ULL, 0x1febe411027ef0a1ULL, 0x816ec8bab18fb756ULL,
      0x77d0e7c78f07b296ULL, 0x9ce51e71fcbee012ULL, 0x0636f70e7e3ea7e5ULL,
      0xbe9c82a3c82c16a4ULL, 0xd11fd98869c7e8bfULL, 0x51d4de78be7e063eULL,
      0xbf5cea9a85c0236fULL, 0xf1a5d96434403751ULL, 0x802d753fd941efc9ULL,
      0x2c62689d1045630eULL, 0x0dff596cc5055373ULL, 0x0fd6e7757b774ae1ULL,
      0xa250165477c27d45ULL, 0xfca01f932d08b3dbULL, 0x95073e191a8d9982ULL,
      0x5336b2d975cbd4ceULL, 0xfff71729ea0e5157ULL, 0x52703d2dd05675c1ULL,
  };
  const std::vector<std::uint64_t> oggp = {
      0xe3385f5bb4ae9761ULL, 0xf5d24956c5ee5ab4ULL, 0x16c798d571ba1f4bULL,
      0xb3eea2a7b18d901aULL, 0xef31d1eb9c468554ULL, 0xa9a3c0483067adcbULL,
      0xe82eddea826576a0ULL, 0xeed86f2c83bf2d69ULL, 0x5ec41ca1ffc131b4ULL,
      0x23e2f0cf1932ddf7ULL, 0xb86ed1fdaff94cc8ULL, 0x6a9b0f465779930fULL,
      0x82effee4d9c22943ULL, 0xff687ca79ccb8e1cULL, 0xee69d04ca0854b18ULL,
      0xfc84c31f0ad344a7ULL, 0x68c0210ec2e04a77ULL, 0xf7dfe82d82af2d0dULL,
      0xa46e1534e0699811ULL, 0xcf5b42e5f94040a0ULL, 0xaec7ac73c356ac3cULL,
  };
  const std::vector<PinnedInstance> instances = pinned_instances();
  ASSERT_EQ(ggp.size(), instances.size());
  ASSERT_EQ(oggp.size(), instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const PinnedInstance& inst = instances[i];
    for (const Algorithm algo : {Algorithm::kGGP, Algorithm::kOGGP}) {
      const std::uint64_t digest = schedule_digest(
          solve_kpbs(inst.demand, {inst.k, inst.beta, algo}).schedule);
      EXPECT_EQ(digest, (algo == Algorithm::kGGP ? ggp : oggp)[i])
          << inst.name << (algo == Algorithm::kGGP ? " GGP" : " OGGP")
          << " digest 0x" << std::hex << digest;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, GoldenMakespans,
                         ::testing::Values(SolvePath::kOracle,
                                           SolvePath::kProduction),
                         [](const ::testing::TestParamInfo<SolvePath>& i) {
                           return i.param == SolvePath::kOracle ? "cold"
                                                                : "warm";
                         });

}  // namespace
}  // namespace redist
