// Future-work bench — dynamically varying backbone (paper Section 6):
// static plan (k frozen at T(0)) vs adaptive re-planning between steps.
//
//   ./dynamic_backbone [--seed=1] [--repeats=3] [--csv]
#include "bench_util.hpp"
#include "dynamic/adaptive.hpp"

int main(int argc, char** argv) {
  using namespace redist;
  Flags flags(argc, argv);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const int repeats = static_cast<int>(flags.get_int("repeats", 3));
  const bool csv = flags.get_bool("csv", false);
  flags.check_unused();

  bench::preamble(
      "Extension: dynamic backbone (Section 6 future work)",
      "static k(T0) plan vs adaptive per-step re-planning, OGGP",
      "the paper conjectured the multi-step approach suits dynamic "
      "throughput; expectation: adaptive never much worse, clearly better "
      "when the backbone widens or narrows mid-redistribution");

  Platform base;
  base.n1 = 10;
  base.n2 = 10;
  base.t1_bps = 12.5e6 / 5;  // 100/5 Mbit cards
  base.t2_bps = 12.5e6 / 5;
  base.beta_seconds = 0.01;
  const double bytes_per_unit = base.t1_bps;  // 1 s units

  // Both executions face the same TCP model; only the static plan ever
  // oversubscribes a narrowed backbone, so only it pays the penalty.
  FluidOptions tcp;
  tcp.congestion_alpha = 0.08;
  tcp.unfairness_stddev = 0.8;

  struct Scenario {
    const char* name;
    BackboneTrace trace;
  };
  const double T = 12.5e6;  // 100 Mbit
  const std::vector<Scenario> scenarios = {
      {"constant", BackboneTrace::constant(T)},
      {"drop_half_at_60s", BackboneTrace({{60.0, T}, {0.0, T / 2}})},
      {"grow_2x_at_60s", BackboneTrace({{60.0, T / 2}, {0.0, T}})},
      {"sawtooth",
       BackboneTrace({{30.0, T}, {60.0, T / 4}, {90.0, T}, {0.0, T / 2}})},
  };

  Table table({"scenario", "static_s", "adaptive_s", "adaptive_every4_s",
               "gain_pct", "replans"});
  for (const Scenario& sc : scenarios) {
    RunningStats stat_static;
    RunningStats stat_adaptive;
    RunningStats stat_lazy;
    RunningStats replans;
    for (int rep = 0; rep < repeats; ++rep) {
      Rng rng(seed + static_cast<std::uint64_t>(rep) * 104729ULL);
      const TrafficMatrix traffic = uniform_all_pairs_traffic(
          rng, base.n1, base.n2, 5'000'000, 20'000'000);
      stat_static.add(
          run_static_under_trace(base, sc.trace, traffic, bytes_per_unit, 1,
                                 Algorithm::kOGGP, tcp)
              .total_seconds);
      const DynamicRunResult a = run_adaptive_under_trace(
          base, sc.trace, traffic, bytes_per_unit, 1, Algorithm::kOGGP, 1,
          tcp);
      stat_adaptive.add(a.total_seconds);
      replans.add(static_cast<double>(a.replans));
      stat_lazy.add(
          run_adaptive_under_trace(base, sc.trace, traffic, bytes_per_unit,
                                   1, Algorithm::kOGGP, 4, tcp)
              .total_seconds);
    }
    table.add_row(
        {sc.name, Table::fmt(stat_static.mean(), 1),
         Table::fmt(stat_adaptive.mean(), 1), Table::fmt(stat_lazy.mean(), 1),
         Table::fmt(100.0 * (1.0 - stat_adaptive.mean() / stat_static.mean()),
                    1),
         Table::fmt(replans.mean(), 0)});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}
