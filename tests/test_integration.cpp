// End-to-end integration: traffic matrix -> communication graph -> GGP/OGGP
// schedule -> validation -> simulated execution -> (small) live socket
// execution, checking byte-exact delivery and cost relations at every stage.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "kpbs/analysis.hpp"
#include "kpbs/async_relax.hpp"
#include "kpbs/gantt.hpp"
#include "kpbs/lower_bound.hpp"
#include "kpbs/solver.hpp"
#include "mpilite/redistribute.hpp"
#include "netsim/executor.hpp"
#include "workload/block_cyclic.hpp"
#include "workload/uniform_traffic.hpp"

namespace redist {
namespace {

TEST(Integration, MatrixToScheduleToSimulatedExecution) {
  Rng rng(100);
  const NodeId n = 6;
  const TrafficMatrix traffic =
      uniform_all_pairs_traffic(rng, n, n, 10000, 50000);

  Platform p;
  p.n1 = n;
  p.n2 = n;
  p.t1_bps = 1e5;
  p.t2_bps = 1e5;
  p.backbone_bps = 3e5;  // k = 3
  p.beta_seconds = 0.05;
  const int k = p.max_k();
  ASSERT_EQ(k, 3);

  const double bytes_per_unit = p.comm_speed_bps() * 0.1;  // 0.1 s units
  const BipartiteGraph g = traffic.to_graph(bytes_per_unit);

  for (const Algorithm algo : {Algorithm::kGGP, Algorithm::kOGGP}) {
    const Schedule s = solve_kpbs(g, {k, 1, algo}).schedule;
    validate_schedule(g, s, k);
    const ExecutionResult r = execute_schedule(p, traffic, s, bytes_per_unit);
    EXPECT_DOUBLE_EQ(r.bytes_delivered, static_cast<double>(traffic.total()));
    // Transmission cannot beat the physics: total bytes / aggregate ceiling.
    const double physics_floor =
        static_cast<double>(traffic.total()) / p.backbone_bps;
    EXPECT_GE(r.transmission_seconds, physics_floor - 1e-9);
  }
}

TEST(Integration, ScheduledBeatsBruteforceUnderCongestion) {
  Rng rng(200);
  const TrafficMatrix traffic =
      uniform_all_pairs_traffic(rng, 8, 8, 50000, 200000);
  Platform p;
  p.n1 = 8;
  p.n2 = 8;
  p.t1_bps = 1e5;
  p.t2_bps = 1e5;
  p.backbone_bps = 3e5;
  p.beta_seconds = 0.02;
  FluidOptions tcp;
  tcp.congestion_alpha = 0.35;
  tcp.jitter_stddev = 0.02;
  tcp.seed = 7;

  const double brute = simulate_bruteforce(p, traffic, tcp).total_seconds;
  const double bpu = p.comm_speed_bps() * 0.5;
  const BipartiteGraph g = traffic.to_graph(bpu);
  const Schedule s = solve_kpbs(g, {p.max_k(), 1, Algorithm::kOGGP}).schedule;
  const double sched =
      execute_schedule(p, traffic, s, bpu, tcp).total_seconds;
  EXPECT_LT(sched, brute);
}

TEST(Integration, BlockCyclicLocalRedistribution) {
  // Section 2.4: local redistribution, k = min(n1, n2), backbone is not a
  // bottleneck. Redistribute cyclic(4) over 6 procs -> cyclic(3) over 4.
  const TrafficMatrix traffic = block_cyclic_traffic(
      10000, 8, BlockCyclicLayout{6, 4}, BlockCyclicLayout{4, 3});
  const BipartiteGraph g = traffic.to_graph(1000.0);
  const int k = 4;  // min(6, 4)
  const Schedule s = solve_kpbs(g, {k, 1, Algorithm::kOGGP}).schedule;
  validate_schedule(g, s, k);
  const LowerBound lb = kpbs_lower_bound(g, k, 1);
  EXPECT_LE(Rational(s.cost(1)), Rational(2) * lb.value());
}

TEST(Integration, LiveThreadedRedistributionEndToEnd) {
  // Small but real: rank threads over loopback TCP, token buckets,
  // barriers, byte verification.
  Rng rng(300);
  const TrafficMatrix traffic =
      uniform_all_pairs_traffic(rng, 3, 3, 4000, 12000);
  SocketClusterConfig config;
  config.card_out_bps = 1e6;
  config.card_in_bps = 1e6;
  config.backbone_bps = 2e6;
  config.chunk_bytes = 2048;
  config.burst_bytes = 4096;

  const double bpu = 4000.0;
  const BipartiteGraph g = traffic.to_graph(bpu);
  const Schedule s = solve_kpbs(g, {2, 1, Algorithm::kOGGP}).schedule;
  validate_schedule(g, s, 2);

  const SocketRunResult brute = socket_bruteforce(config, traffic);
  ASSERT_TRUE(brute.verified);
  const SocketRunResult sched = socket_scheduled(config, traffic, s, bpu);
  ASSERT_TRUE(sched.verified);
  EXPECT_EQ(brute.bytes_delivered, traffic.total());
  EXPECT_EQ(sched.bytes_delivered, traffic.total());
}

TEST(Integration, FluidAndSocketAgreeOnDelivery) {
  // The same schedule executed on the fluid simulator and the socket
  // runtime must deliver exactly the same bytes; the socket runtime must
  // verify every byte against its pattern.
  Rng rng(400);
  const TrafficMatrix traffic =
      uniform_all_pairs_traffic(rng, 3, 3, 4000, 10000);
  const double bpu = 4000.0;
  const BipartiteGraph g = traffic.to_graph(bpu);
  const Schedule s = solve_kpbs(g, {2, 1, Algorithm::kOGGP}).schedule;
  validate_schedule(g, s, 2);

  Platform p;
  p.n1 = 3;
  p.n2 = 3;
  p.t1_bps = 1e6;
  p.t2_bps = 1e6;
  p.backbone_bps = 2e6;
  p.beta_seconds = 0.001;
  const ExecutionResult fluid = execute_schedule(p, traffic, s, bpu);
  EXPECT_DOUBLE_EQ(fluid.bytes_delivered,
                   static_cast<double>(traffic.total()));

  SocketClusterConfig sockets;
  sockets.card_out_bps = 1e6;
  sockets.card_in_bps = 1e6;
  sockets.backbone_bps = 2e6;
  sockets.chunk_bytes = 2048;
  sockets.burst_bytes = 4096;
  const SocketRunResult wire = socket_scheduled(sockets, traffic, s, bpu);
  EXPECT_TRUE(wire.verified);
  EXPECT_EQ(wire.bytes_delivered, traffic.total());
}

TEST(Integration, GanttAndAnalysisComposeWithSolver) {
  Rng rng(500);
  const TrafficMatrix traffic =
      uniform_all_pairs_traffic(rng, 4, 4, 10'000, 40'000);
  const BipartiteGraph g = traffic.to_graph(10'000.0);
  const Schedule s = solve_kpbs(g, {3, 1, Algorithm::kOGGP}).schedule;
  const ScheduleAnalysis a = analyze_schedule(g, s, 3);
  EXPECT_EQ(a.total_amount, g.total_weight());
  const std::string svg = schedule_to_svg(s, g.left_count());
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  const AsyncSchedule relaxed = relax_barriers(s, 3, 1);
  relaxed.check_feasible(3);
  EXPECT_LE(relaxed.makespan, s.cost(1));
  const std::string svg2 = async_to_svg(relaxed, g.left_count());
  EXPECT_NE(svg2.find("</svg>"), std::string::npos);
}

TEST(Integration, CostsAreConsistentAcrossReportingPaths) {
  // Schedule::cost must equal what the executor charges when each time unit
  // costs exactly one second and beta matches.
  TrafficMatrix traffic(2, 2);
  traffic.set(0, 0, 300);
  traffic.set(0, 1, 500);
  traffic.set(1, 1, 400);
  Platform p;
  p.n1 = 2;
  p.n2 = 2;
  p.t1_bps = 100;
  p.t2_bps = 100;
  p.backbone_bps = 200;
  p.beta_seconds = 2.0;
  const double bpu = 100.0;  // 1 unit == 1 second at comm speed
  const BipartiteGraph g = traffic.to_graph(bpu);
  const Schedule s = solve_kpbs(g, {2, 2, Algorithm::kOGGP}).schedule;
  const ExecutionResult r = execute_schedule(p, traffic, s, bpu);
  EXPECT_NEAR(r.total_seconds, static_cast<double>(s.cost(2)), 1e-6);
}

}  // namespace
}  // namespace redist
