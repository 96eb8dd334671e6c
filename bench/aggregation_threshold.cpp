// Future-work bench — local pre-redistribution (paper Section 6): sweep
// the aggregation threshold on a workload of a few heavy flows plus many
// tiny ones and report end-to-end time = local phase (fast cluster
// network) + scheduled inter-cluster phase (fluid simulation).
//
//   ./aggregation_threshold [--seed=1] [--repeats=3] [--csv]
#include "aggregation/aggregate.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace redist;
  Flags flags(argc, argv);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const int repeats = static_cast<int>(flags.get_int("repeats", 3));
  const bool csv = flags.get_bool("csv", false);
  flags.check_unused();

  bench::preamble(
      "Extension: local pre-redistribution (Section 6 future work)",
      "end-to-end time vs aggregation threshold, heavy+tiny mixed workload",
      "aggregating tiny messages through gateways should cut edges/steps "
      "and total time up to a sweet spot, then local copying costs bite");

  const int k = 4;
  const Platform platform = paper_testbed(k, 0.01);
  const double local_bps = 12.5e6 * 8;  // gigabit-class local network
  const double bytes_per_unit = platform.comm_speed_bps();

  Table table(
      {"threshold_KB", "edges", "steps", "local_s", "wire_s", "total_s"});
  for (const Bytes threshold_kb :
       {0LL, 50LL, 200LL, 1000LL, 5000LL, 20000LL}) {
    RunningStats edges;
    RunningStats steps;
    RunningStats local_s;
    RunningStats wire_s;
    RunningStats total_s;
    for (int rep = 0; rep < repeats; ++rep) {
      Rng rng(seed + static_cast<std::uint64_t>(threshold_kb) * 977ULL +
              static_cast<std::uint64_t>(rep));
      // Workload: per receiver one heavy sender (~40 MB) and many tiny
      // messages (4..400 KB) from the others.
      TrafficMatrix traffic(platform.n1, platform.n2);
      for (NodeId j = 0; j < platform.n2; ++j) {
        const NodeId heavy = static_cast<NodeId>(
            rng.uniform_int(0, platform.n1 - 1));
        traffic.set(heavy, j, rng.uniform_int(20'000'000, 60'000'000));
        for (NodeId i = 0; i < platform.n1; ++i) {
          if (i != heavy && rng.bernoulli(0.8)) {
            traffic.set(i, j, rng.uniform_int(4'000, 400'000));
          }
        }
      }
      const AggregationPlan plan =
          plan_aggregation(traffic, threshold_kb * 1000);
      const BipartiteGraph g = plan.consolidated.to_graph(bytes_per_unit);
      const Schedule s = solve_kpbs(g, {k, 1, Algorithm::kOGGP}).schedule;
      const ExecutionResult run =
          execute_schedule(platform, plan.consolidated, s, bytes_per_unit);
      const double local = plan.local_phase_seconds(local_bps);
      edges.add(static_cast<double>(g.alive_edge_count()));
      steps.add(static_cast<double>(s.step_count()));
      local_s.add(local);
      wire_s.add(run.total_seconds);
      total_s.add(local + run.total_seconds);
    }
    table.add_row({Table::fmt(threshold_kb), Table::fmt(edges.mean(), 1),
                   Table::fmt(steps.mean(), 1), Table::fmt(local_s.mean(), 2),
                   Table::fmt(wire_s.mean(), 1),
                   Table::fmt(total_s.mean(), 1)});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}
