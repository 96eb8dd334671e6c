// Future-work bench — patterns not fully known in advance (Section 6):
// demand arrives in batches while earlier traffic is still draining.
// Merging re-planning (the paper's anticipated use of the multi-step
// structure) vs naive batch-sequential execution.
//
//   ./online_arrivals [--seed=1] [--repeats=3] [--csv]
#include "bench_util.hpp"
#include "dynamic/online.hpp"

int main(int argc, char** argv) {
  using namespace redist;
  Flags flags(argc, argv);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const int repeats = static_cast<int>(flags.get_int("repeats", 3));
  const bool csv = flags.get_bool("csv", false);
  flags.check_unused();

  bench::preamble(
      "Extension: online arrivals (Section 6 future work)",
      "merge-and-replan vs batch-sequential, OGGP, 10x10 testbed",
      "merging should win when batches arrive faster than they drain "
      "(overlap densifies steps) and tie when arrivals are sparse");

  const Platform platform = paper_testbed(4, 0.01);
  const double bytes_per_unit = platform.comm_speed_bps();

  Table table({"spacing_s", "batches", "online_s", "sequential_s",
               "gain_pct", "online_idle_s"});
  for (const double spacing : {2.0, 10.0, 30.0, 120.0}) {
    RunningStats online_s;
    RunningStats sequential_s;
    RunningStats idle_s;
    const int batch_count = 5;
    for (int rep = 0; rep < repeats; ++rep) {
      Rng rng(seed + static_cast<std::uint64_t>(rep) * 31337ULL +
              static_cast<std::uint64_t>(spacing * 7));
      std::vector<ArrivalBatch> batches;
      for (int b = 0; b < batch_count; ++b) {
        batches.push_back(ArrivalBatch{
            b * spacing,
            uniform_all_pairs_traffic(rng, platform.n1, platform.n2,
                                      1'000'000, 5'000'000)});
      }
      const OnlineResult online =
          run_online(platform, batches, bytes_per_unit, 1, Algorithm::kOGGP);
      const OnlineResult sequential = run_batch_sequential(
          platform, batches, bytes_per_unit, 1, Algorithm::kOGGP);
      online_s.add(online.total_seconds);
      sequential_s.add(sequential.total_seconds);
      idle_s.add(online.idle_seconds);
    }
    table.add_row(
        {Table::fmt(spacing, 0), Table::fmt(static_cast<std::int64_t>(5)),
         Table::fmt(online_s.mean(), 1), Table::fmt(sequential_s.mean(), 1),
         Table::fmt(100.0 * (1.0 - online_s.mean() / sequential_s.mean()), 1),
         Table::fmt(idle_s.mean(), 1)});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}
