// google-benchmark microbenchmarks backing the paper's complexity claims:
// GGP O((m+n)^2 sqrt(n)), OGGP O((m+n)^3 sqrt(n)) worst case (our OGGP runs
// an O(m sqrt(n) log m) bottleneck search per peel), Hopcroft-Karp
// O(m sqrt(n)), and the regularization transform.
#include <benchmark/benchmark.h>

#include "redist.hpp"

namespace {

using namespace redist;

BipartiteGraph make_graph(std::int64_t scale, Weight max_weight) {
  Rng rng(static_cast<std::uint64_t>(scale) * 12345ULL + 7);
  RandomGraphConfig config;
  config.max_left = static_cast<NodeId>(scale);
  config.max_right = static_cast<NodeId>(scale);
  config.max_edges = static_cast<int>(scale * scale / 2);
  config.max_weight = max_weight;
  return random_bipartite(rng, config);
}

void BM_HopcroftKarp(benchmark::State& state) {
  const BipartiteGraph g = make_graph(state.range(0), 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_matching(g).size());
  }
  state.SetComplexityN(g.alive_edge_count());
}
BENCHMARK(BM_HopcroftKarp)->Range(8, 128)->Complexity(benchmark::oNSquared);

void BM_Regularize(benchmark::State& state) {
  const BipartiteGraph g = make_graph(state.range(0), 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(regularize(g, 5).graph.edge_count());
  }
}
BENCHMARK(BM_Regularize)->Range(8, 128);

void BM_GGP(benchmark::State& state) {
  const BipartiteGraph g = make_graph(state.range(0), 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve_kpbs(g, {5, 1, Algorithm::kGGP}).schedule.step_count());
  }
  state.SetComplexityN(g.alive_edge_count() + g.left_count() +
                       g.right_count());
}
BENCHMARK(BM_GGP)->Range(8, 64)->Complexity();

void BM_OGGP(benchmark::State& state) {
  const BipartiteGraph g = make_graph(state.range(0), 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve_kpbs(g, {5, 1, Algorithm::kOGGP}).schedule.step_count());
  }
  state.SetComplexityN(g.alive_edge_count() + g.left_count() +
                       g.right_count());
}
BENCHMARK(BM_OGGP)->Range(8, 64)->Complexity();

// Identical workload to BM_OGGP but with a metrics registry installed (no
// trace). The delta between the two is the enabled-telemetry overhead
// budget: docs/OBSERVABILITY.md pins it below 5%.
void BM_OGGP_Metrics(benchmark::State& state) {
  const BipartiteGraph g = make_graph(state.range(0), 20);
  obs::MetricsRegistry registry;
  obs::ScopedTelemetry scoped(&registry, nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve_kpbs(g, {5, 1, Algorithm::kOGGP}).schedule.step_count());
  }
  state.SetComplexityN(g.alive_edge_count() + g.left_count() +
                       g.right_count());
}
BENCHMARK(BM_OGGP_Metrics)->Range(8, 64)->Complexity();

void BM_KpbsBatch(benchmark::State& state) {
  std::vector<KpbsRequest> requests;
  for (int i = 0; i < 8; ++i) {
    KpbsRequest request;
    request.demand = make_graph(32, 20);
    request.options.k = 5;
    request.options.algorithm = Algorithm::kOGGP;
    requests.push_back(std::move(request));
  }
  BatchOptions options;
  options.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_kpbs_batch(requests, options).size());
  }
}
BENCHMARK(BM_KpbsBatch)->Arg(1)->Arg(4);

void BM_LowerBound(benchmark::State& state) {
  const BipartiteGraph g = make_graph(64, 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kpbs_lower_bound(g, 5, 1).value_double());
  }
}
BENCHMARK(BM_LowerBound);

void BM_BlockCyclicTraffic(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        block_cyclic_traffic(1'000'000'000LL, 8, BlockCyclicLayout{16, 64},
                             BlockCyclicLayout{24, 32})
            .total());
  }
}
BENCHMARK(BM_BlockCyclicTraffic);

void BM_FluidSimulator(benchmark::State& state) {
  Platform p;
  p.n1 = 10;
  p.n2 = 10;
  p.t1_bps = 1e6;
  p.t2_bps = 1e6;
  p.backbone_bps = 3e6;
  Rng rng(5);
  const TrafficMatrix traffic =
      uniform_all_pairs_traffic(rng, 10, 10, 1'000'000, 5'000'000);
  std::vector<Flow> flows;
  for (NodeId i = 0; i < 10; ++i) {
    for (NodeId j = 0; j < 10; ++j) {
      flows.push_back(Flow{i, j, static_cast<double>(traffic.at(i, j))});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_fluid(p, flows).makespan_seconds);
  }
}
BENCHMARK(BM_FluidSimulator);

}  // namespace
