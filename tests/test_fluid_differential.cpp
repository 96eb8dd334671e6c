// Differential tests for the fluid simulator: production progressive filling
// (netsim/fluid.cpp), which keeps one constraint structure across flow
// completions, must reproduce the from-scratch reference of
// tests/oracle/fluid_oracle.hpp to the bit. Every comparison is exact `==`
// on doubles: makespans, per-flow completion times, rate recomputation
// counts, max_min_rates outputs and executor totals.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kpbs/solver.hpp"
#include "netsim/executor.hpp"
#include "netsim/fluid.hpp"
#include "oracle/fluid_oracle.hpp"
#include "workload/uniform_traffic.hpp"

namespace redist {
namespace {

// The paper's TCP model (bench/e2e's paper_tcp transport).
FluidOptions tcp_options(std::uint64_t seed) {
  FluidOptions o;
  o.congestion_alpha = 0.08;
  o.jitter_stddev = 0.03;
  o.unfairness_stddev = 0.8;
  o.seed = seed;
  return o;
}

void expect_same_fluid(const FluidResult& want, const FluidResult& got,
                       const std::string& context) {
  EXPECT_EQ(want.makespan_seconds, got.makespan_seconds) << context;
  EXPECT_EQ(want.rate_recomputations, got.rate_recomputations) << context;
  ASSERT_EQ(want.completion_seconds.size(), got.completion_seconds.size())
      << context;
  for (std::size_t f = 0; f < want.completion_seconds.size(); ++f) {
    EXPECT_EQ(want.completion_seconds[f], got.completion_seconds[f])
        << context << " flow " << f;
  }
}

void expect_same_execution(const ExecutionResult& want,
                           const ExecutionResult& got,
                           const std::string& context) {
  EXPECT_EQ(want.total_seconds, got.total_seconds) << context;
  EXPECT_EQ(want.transmission_seconds, got.transmission_seconds) << context;
  EXPECT_EQ(want.barrier_seconds, got.barrier_seconds) << context;
  EXPECT_EQ(want.steps, got.steps) << context;
  EXPECT_EQ(want.bytes_delivered, got.bytes_delivered) << context;
}

std::vector<Flow> all_pairs_flows(const TrafficMatrix& traffic) {
  std::vector<Flow> flows;
  for (NodeId i = 0; i < traffic.senders(); ++i) {
    for (NodeId j = 0; j < traffic.receivers(); ++j) {
      const Bytes b = traffic.at(i, j);
      if (b > 0) flows.push_back(Flow{i, j, static_cast<double>(b)});
    }
  }
  return flows;
}

// Random flows on `p`: repeated pairs, ragged sizes and some zero-byte
// flows.
std::vector<Flow> random_flows(Rng& rng, const Platform& p, int count) {
  std::vector<Flow> flows;
  for (int f = 0; f < count; ++f) {
    const auto src = static_cast<NodeId>(rng.uniform_int(0, p.n1 - 1));
    const auto dst = static_cast<NodeId>(rng.uniform_int(0, p.n2 - 1));
    const double bytes =
        rng.bernoulli(0.1) ? 0.0 : rng.uniform_real(1.0, 5000.0);
    flows.push_back(Flow{src, dst, bytes});
  }
  return flows;
}

// A small platform with per-node cards; `backbone_bound` makes the
// backbone narrower than the cards' total.
Platform random_platform(Rng& rng, bool heterogeneous, bool backbone_bound) {
  Platform p;
  p.n1 = static_cast<NodeId>(rng.uniform_int(1, 8));
  p.n2 = static_cast<NodeId>(rng.uniform_int(1, 8));
  p.t1_bps = rng.uniform_real(50, 150);
  p.t2_bps = rng.uniform_real(50, 150);
  const double cards = std::min(p.n1 * p.t1_bps, p.n2 * p.t2_bps);
  p.backbone_bps = backbone_bound ? rng.uniform_real(0.2, 0.8) * cards
                                  : rng.uniform_real(1.0, 2.0) * cards;
  p.beta_seconds = 0.01;
  if (heterogeneous) {
    for (NodeId i = 0; i < p.n1; ++i) {
      p.t1_per_node.push_back(p.t1_bps * rng.uniform_real(0.2, 1.5));
    }
    for (NodeId j = 0; j < p.n2; ++j) {
      p.t2_per_node.push_back(p.t2_bps * rng.uniform_real(0.2, 1.5));
    }
  }
  return p;
}

// Fig. 10/11 brute force: paper_testbed(k), U[10, n] MB per pair.
TEST(FluidDifferential, PaperTestbedBruteForce) {
  for (const int k : {3, 7}) {
    const Platform p = paper_testbed(k, 0.01);
    Rng rng(1000 + static_cast<std::uint64_t>(k));
    for (int draw = 0; draw < 4; ++draw) {
      const TrafficMatrix traffic = uniform_all_pairs_traffic(
          rng, p.n1, p.n2, 10'000'000, (20 + 20 * draw) * 1'000'000);
      const std::vector<Flow> flows = all_pairs_flows(traffic);
      for (const bool tcp : {true, false}) {
        const FluidOptions options =
            tcp ? tcp_options(rng.next()) : FluidOptions{};
        const std::string context = "k=" + std::to_string(k) + " draw=" +
                                    std::to_string(draw) +
                                    (tcp ? " tcp" : " ideal");
        expect_same_fluid(oracle::simulate_fluid(p, flows, options),
                          simulate_fluid(p, flows, options), context);
      }
    }
  }
}

// Random flow sets on heterogeneous, backbone-bound and plain platforms,
// each under the TCP model, each of its three knobs alone, and ideal
// transport.
TEST(FluidDifferential, RandomPlatformsAndKnobs) {
  Rng rng(20261017);
  for (int trial = 0; trial < 120; ++trial) {
    const bool heterogeneous = trial % 2 == 0;
    const bool backbone_bound = trial % 3 != 0;
    const Platform p = random_platform(rng, heterogeneous, backbone_bound);
    const std::vector<Flow> flows =
        random_flows(rng, p, static_cast<int>(rng.uniform_int(0, 40)));
    std::vector<FluidOptions> variants(5, tcp_options(rng.next()));
    variants[1] = FluidOptions{};
    variants[2] = FluidOptions{};
    variants[2].congestion_alpha = 0.5;
    variants[3] = FluidOptions{};
    variants[3].jitter_stddev = 0.1;
    variants[3].seed = rng.next();
    variants[4] = FluidOptions{};
    variants[4].unfairness_stddev = 1.5;
    variants[4].seed = rng.next();
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const std::string context = "trial=" + std::to_string(trial) +
                                  " variant=" + std::to_string(v);
      expect_same_fluid(oracle::simulate_fluid(p, flows, variants[v]),
                        simulate_fluid(p, flows, variants[v]), context);
    }
  }
}

TEST(FluidDifferential, ZeroByteFlows) {
  Rng rng(77);
  const Platform p = paper_testbed(3, 0.01);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Flow> flows = random_flows(rng, p, 30);
    for (std::size_t f = 0; f < flows.size(); f += 3) flows[f].bytes = 0;
    const FluidOptions options = tcp_options(rng.next());
    expect_same_fluid(oracle::simulate_fluid(p, flows, options),
                      simulate_fluid(p, flows, options),
                      "trial=" + std::to_string(trial));
  }
  const std::vector<Flow> only_empty{Flow{0, 0, 0}, Flow{1, 2, 0}};
  expect_same_fluid(oracle::simulate_fluid(p, only_empty),
                    simulate_fluid(p, only_empty), "all zero-byte");
}

// max_min_rates directly: active masks, explicit weights, overrides.
TEST(FluidDifferential, MaxMinRatesWithMasksAndWeights) {
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const Platform p = random_platform(rng, trial % 2 == 0, trial % 3 != 0);
    const std::vector<Flow> flows =
        random_flows(rng, p, static_cast<int>(rng.uniform_int(1, 30)));
    std::vector<char> active;
    if (trial % 4 != 0) {
      for (std::size_t f = 0; f < flows.size(); ++f) {
        active.push_back(rng.bernoulli(0.7) ? 1 : 0);
      }
    }
    std::vector<double> weights;
    if (trial % 5 != 0) {
      for (std::size_t f = 0; f < flows.size(); ++f) {
        weights.push_back(std::exp(rng.normal(0.0, 1.0)));
      }
    }
    const double override_bps =
        trial % 7 == 0 ? std::numeric_limits<double>::infinity()
        : trial % 2 == 0 ? 0.0
                         : p.backbone_bps * rng.uniform_real(0.1, 2.0);
    const std::vector<double> want =
        oracle::max_min_rates(p, flows, active, override_bps, weights);
    const std::vector<double> got =
        max_min_rates(p, flows, active, override_bps, weights);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t f = 0; f < want.size(); ++f) {
      EXPECT_EQ(want[f], got[f]) << "trial=" << trial << " flow " << f;
    }
  }
}

// Executor totals of GGP and OGGP schedules and of brute force, under both
// transports, on the paper's testbed.
TEST(FluidDifferential, ExecutorTotalsOnScheduledAndBruteForce) {
  for (const int k : {3, 7}) {
    const Platform p = paper_testbed(k, 0.01);
    const double bytes_per_unit = p.comm_speed_bps();
    Rng rng(500 + static_cast<std::uint64_t>(k));
    for (int draw = 0; draw < 2; ++draw) {
      const TrafficMatrix traffic = uniform_all_pairs_traffic(
          rng, p.n1, p.n2, 10'000'000, (30 + 40 * draw) * 1'000'000);
      const BipartiteGraph demand = traffic.to_graph(bytes_per_unit);
      for (const bool tcp : {true, false}) {
        const FluidOptions options =
            tcp ? tcp_options(rng.next()) : FluidOptions{};
        const std::string context = "k=" + std::to_string(k) + " draw=" +
                                    std::to_string(draw) +
                                    (tcp ? " tcp" : " ideal");
        expect_same_execution(
            oracle::simulate_bruteforce(p, traffic, options),
            simulate_bruteforce(p, traffic, options), context + " brute");
        for (const Algorithm algo : {Algorithm::kGGP, Algorithm::kOGGP}) {
          const Schedule schedule = solve_kpbs(demand, {k, 1, algo}).schedule;
          expect_same_execution(
              oracle::execute_schedule(p, traffic, schedule, bytes_per_unit,
                                       options),
              execute_schedule(p, traffic, schedule, bytes_per_unit, options),
              context + " " + algorithm_name(algo));
        }
      }
    }
  }
}

}  // namespace
}  // namespace redist
