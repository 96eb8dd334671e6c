// Ablation — the matching strategy inside the peeling loop.
//
// The paper observes that GGP works with *any* matching algorithm and
// builds OGGP around the bottleneck (max-min) matching. This harness
// quantifies the design choice by running the same pipeline with three
// strategies: arbitrary maximum matching (GGP), maximum-total-weight
// matching (GGP-MW, Hungarian, through the test oracle's pipeline) and
// bottleneck matching (OGGP).
//
//   ./ablation_matching_strategies [--sims=200] [--seed=1] [--csv]
#include "bench_util.hpp"
#include "oracle/bottleneck_oracle.hpp"
#include "oracle/hungarian.hpp"

int main(int argc, char** argv) {
  using namespace redist;
  Flags flags(argc, argv);
  const int sims = static_cast<int>(flags.get_int("sims", 200));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const bool csv = flags.get_bool("csv", false);
  flags.check_unused();

  bench::preamble(
      "Ablation: matching strategy",
      "arbitrary (GGP) vs max-total-weight (GGP-MW) vs bottleneck (OGGP)",
      "expected ordering on both steps and ratio: OGGP <= GGP-MW <= GGP — "
      "maximizing total weight helps, maximizing the minimum helps more");

  RandomGraphConfig config;
  config.min_weight = 1;
  config.max_weight = 20;

  Table table({"k", "ggp_ratio", "ggpmw_ratio", "oggp_ratio", "ggp_steps",
               "ggpmw_steps", "oggp_steps"});
  for (const int k : {2, 3, 5, 8, 12, 20, 40}) {
    RunningStats ratio_ggp;
    RunningStats ratio_mw;
    RunningStats ratio_oggp;
    RunningStats steps_ggp;
    RunningStats steps_mw;
    RunningStats steps_oggp;
    Rng rng(seed * 131071ULL + static_cast<std::uint64_t>(k));
    for (int i = 0; i < sims; ++i) {
      const BipartiteGraph g = random_bipartite(rng, config);
      const Weight beta = 1;
      const double lb = kpbs_lower_bound(g, k, beta).value_double();
      const Schedule ggp = solve_kpbs(g, {k, beta, Algorithm::kGGP}).schedule;
      const Schedule mw =
          oracle::solve(g, k, beta, max_weight_perfect_matching);
      const Schedule oggp = solve_kpbs(g, {k, beta, Algorithm::kOGGP}).schedule;
      ratio_ggp.add(static_cast<double>(ggp.cost(beta)) / lb);
      ratio_mw.add(static_cast<double>(mw.cost(beta)) / lb);
      ratio_oggp.add(static_cast<double>(oggp.cost(beta)) / lb);
      steps_ggp.add(static_cast<double>(ggp.step_count()));
      steps_mw.add(static_cast<double>(mw.step_count()));
      steps_oggp.add(static_cast<double>(oggp.step_count()));
    }
    table.add_row({Table::fmt(static_cast<std::int64_t>(k)),
                   Table::fmt(ratio_ggp.mean()), Table::fmt(ratio_mw.mean()),
                   Table::fmt(ratio_oggp.mean()),
                   Table::fmt(steps_ggp.mean(), 1),
                   Table::fmt(steps_mw.mean(), 1),
                   Table::fmt(steps_oggp.mean(), 1)});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}
