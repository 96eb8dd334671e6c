#include "mpilite/comm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "kpbs/solver.hpp"
#include "mpilite/redistribute.hpp"
#include "workload/uniform_traffic.hpp"

namespace redist {
namespace {

TEST(Mpilite, SingleRankMesh) {
  Mesh mesh(1);
  std::atomic<int> ran{0};
  run_ranks(mesh, [&](Communicator& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    comm.barrier();  // degenerate barrier must not hang
    ++ran;
  });
  EXPECT_EQ(ran.load(), 1);
}

TEST(Mpilite, PointToPointRoundRobin) {
  const int n = 4;
  Mesh mesh(n);
  std::atomic<int> checks{0};
  run_ranks(mesh, [&](Communicator& comm) {
    // Everyone sends its rank to the next rank; receives from previous.
    const int me = comm.rank();
    const int to = (me + 1) % n;
    const int from = (me + n - 1) % n;
    comm.send(to, 5, &me, sizeof(me));
    const std::vector<char> got = comm.recv(from, 5);
    int value = -1;
    std::memcpy(&value, got.data(), sizeof(value));
    if (value == from) ++checks;
  });
  EXPECT_EQ(checks.load(), n);
}

TEST(Mpilite, MessagesBetweenPairKeepOrder) {
  Mesh mesh(2);
  run_ranks(mesh, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 50; ++i) comm.send(1, 9, &i, sizeof(i));
    } else {
      for (int i = 0; i < 50; ++i) {
        const std::vector<char> got = comm.recv(0, 9);
        int value = -1;
        std::memcpy(&value, got.data(), sizeof(value));
        ASSERT_EQ(value, i);
      }
    }
  });
}

TEST(Mpilite, BarrierSynchronizesPhases) {
  const int n = 5;
  Mesh mesh(n);
  std::atomic<int> phase1{0};
  std::atomic<bool> violated{false};
  run_ranks(mesh, [&](Communicator& comm) {
    ++phase1;
    comm.barrier();
    // After the barrier every rank must observe all phase-1 increments.
    if (phase1.load() != n) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST(Mpilite, SubgroupBarrierDoesNotTouchOthers) {
  const int n = 4;
  Mesh mesh(n);
  const std::vector<int> group{0, 2};
  run_ranks(mesh, [&](Communicator& comm) {
    if (comm.rank() == 0 || comm.rank() == 2) {
      comm.barrier(group);
      comm.barrier(group);
    }
    // Ranks 1 and 3 do nothing; the run must still terminate.
  });
  SUCCEED();
}

TEST(Mpilite, BarrierRejectsNonMembers) {
  Mesh mesh(2);
  run_ranks(mesh, [&](Communicator& comm) {
    if (comm.rank() == 1) {
      EXPECT_THROW(comm.barrier({0}), Error);
    }
  });
}

TEST(Mpilite, RankExceptionsPropagate) {
  Mesh mesh(2);
  EXPECT_THROW(run_ranks(mesh,
                         [](Communicator& comm) {
                           if (comm.rank() == 1) throw Error("boom");
                         }),
               Error);
}

TEST(Mpilite, SendValidatesPeer) {
  Mesh mesh(2);
  run_ranks(mesh, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      int x = 0;
      EXPECT_THROW(comm.send(0, 1, &x, sizeof(x)), Error);  // self
      EXPECT_THROW(comm.send(5, 1, &x, sizeof(x)), Error);  // out of range
    }
  });
}

// --- Full redistribution over real sockets -------------------------------

SocketClusterConfig test_cluster() {
  SocketClusterConfig config;
  config.card_out_bps = 3e6;
  config.card_in_bps = 3e6;
  config.backbone_bps = 6e6;
  config.chunk_bytes = 4096;
  config.burst_bytes = 8192;
  return config;
}

TEST(SocketRedistribute, BruteforceDeliversAndVerifies) {
  Rng rng(71);
  const TrafficMatrix traffic =
      uniform_all_pairs_traffic(rng, 3, 3, 5000, 20000);
  const SocketRunResult r = socket_bruteforce(test_cluster(), traffic);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.bytes_delivered, traffic.total());
  EXPECT_EQ(r.steps, 1u);
  EXPECT_GT(r.seconds, 0.0);
}

TEST(SocketRedistribute, ScheduledDeliversAndVerifies) {
  Rng rng(72);
  const TrafficMatrix traffic =
      uniform_all_pairs_traffic(rng, 3, 3, 5000, 20000);
  const double bpu = 8000.0;
  const BipartiteGraph g = traffic.to_graph(bpu);
  const Schedule s = solve_kpbs(g, {2, 1, Algorithm::kOGGP}).schedule;
  const SocketRunResult r = socket_scheduled(test_cluster(), traffic, s, bpu);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.bytes_delivered, traffic.total());
  EXPECT_EQ(r.steps, s.step_count());
}

// The redistribution runtime's two modes on small hand-sized inputs: a
// brute-force run with one empty pair and a scheduled 3x3 OGGP run.
TEST(RuntimeEngine, BruteforceDeliversAndVerifies) {
  TrafficMatrix traffic(2, 2);
  traffic.set(0, 0, 30000);
  traffic.set(0, 1, 20000);
  traffic.set(1, 0, 10000);
  const SocketRunResult r = socket_bruteforce(test_cluster(), traffic);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.bytes_delivered, 60000);
  EXPECT_EQ(r.steps, 1u);
  EXPECT_GT(r.seconds, 0.0);
}

TEST(RuntimeEngine, ScheduledDeliversExactlyTheMatrix) {
  Rng rng(9);
  const TrafficMatrix traffic =
      uniform_all_pairs_traffic(rng, 3, 3, 5000, 15000);
  const double bpu = 5000.0;
  const BipartiteGraph g = traffic.to_graph(bpu);
  const Schedule s = solve_kpbs(g, {2, 1, Algorithm::kOGGP}).schedule;
  const SocketRunResult r = socket_scheduled(test_cluster(), traffic, s, bpu);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.bytes_delivered, traffic.total());
  EXPECT_EQ(r.steps, s.step_count());
}

TEST(SocketRedistribute, SparseTrafficWithIdleNodes) {
  TrafficMatrix traffic(4, 4);
  traffic.set(0, 3, 9000);
  traffic.set(2, 1, 4000);  // nodes 1, 3 send nothing; 0, 2 receive nothing
  const double bpu = 4000.0;
  const BipartiteGraph g = traffic.to_graph(bpu);
  const Schedule s = solve_kpbs(g, {2, 1, Algorithm::kGGP}).schedule;
  const SocketRunResult r = socket_scheduled(test_cluster(), traffic, s, bpu);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.bytes_delivered, 13000);
}

TEST(SocketRedistribute, ShapingSlowsTheTransfer) {
  TrafficMatrix traffic(1, 1);
  traffic.set(0, 0, 120000);
  SocketClusterConfig slow = test_cluster();
  slow.card_out_bps = 400e3;  // 120 KB at 400 KB/s: >= ~0.25 s
  slow.backbone_bps = 400e3;
  const SocketRunResult r = socket_bruteforce(slow, traffic);
  EXPECT_TRUE(r.verified);
  EXPECT_GE(r.seconds, 0.2);
}

TEST(SocketRedistribute, BruteforceEmptyMatrix) {
  const TrafficMatrix traffic(2, 2);
  const SocketRunResult r = socket_bruteforce(test_cluster(), traffic);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.steps, 0u);
  EXPECT_EQ(r.bytes_delivered, 0);
}

TEST(SocketRedistribute, ScheduledToleratesEmptySchedule) {
  const TrafficMatrix traffic(2, 2);  // nothing to send
  const SocketRunResult r =
      socket_scheduled(test_cluster(), traffic, Schedule{}, 1000.0);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.steps, 0u);
  EXPECT_EQ(r.bytes_delivered, 0);
}

TEST(SocketRedistribute, ScheduledRespectsRateCeilings) {
  // 60 KB over a 1 MB/s card takes 60 ms nominal (minus one burst); a lax
  // floor checks that the card shaper is wired into the stepped path.
  TrafficMatrix traffic(1, 1);
  traffic.set(0, 0, 60000);
  SocketClusterConfig config = test_cluster();
  config.card_out_bps = 1e6;
  const BipartiteGraph g = traffic.to_graph(10000.0);
  const Schedule s = solve_kpbs(g, {1, 0, Algorithm::kGGP}).schedule;
  const SocketRunResult r = socket_scheduled(config, traffic, s, 10000.0);
  EXPECT_TRUE(r.verified);
  EXPECT_GE(r.seconds, 0.03);
}

// Loopback-rate shaping with the default chunk and burst: every chunk's
// wait is shorter than a sleep's wake-up, so the rank and drain threads
// finish their waits re-trying with yield(). No timing is asserted; the run
// must deliver every byte.
TEST(SocketRedistribute, HighRateShapingDelivers) {
  Rng rng(73);
  const TrafficMatrix traffic =
      uniform_all_pairs_traffic(rng, 3, 3, 50000, 200000);
  SocketClusterConfig config;
  config.card_out_bps = 1e9;
  config.card_in_bps = 1e9;
  config.backbone_bps = 2e9;
  const double bpu = 50000.0;
  const BipartiteGraph g = traffic.to_graph(bpu);
  const Schedule s = solve_kpbs(g, {2, 1, Algorithm::kOGGP}).schedule;
  const SocketRunResult r = socket_scheduled(config, traffic, s, bpu);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.bytes_delivered, traffic.total());
}

// A config error is the caller's: every entry point throws it before any
// mesh is wired, and the recovering overload does not retry it.
TEST(SocketRedistribute, InvalidConfigThrowsOnEveryEntryPoint) {
  TrafficMatrix traffic(1, 1);
  traffic.set(0, 0, 1000);
  const Schedule s =
      solve_kpbs(traffic.to_graph(1000.0), {1, 0, Algorithm::kGGP}).schedule;
  RobustnessOptions recovering;
  recovering.enabled = true;
  recovering.io_timeout_ms = 500;
  const auto throws_everywhere = [&](const SocketClusterConfig& config,
                                     double bpu) {
    if (bpu > 0) {
      EXPECT_THROW(socket_bruteforce(config, traffic), Error);
    }
    EXPECT_THROW(socket_scheduled(config, traffic, s, bpu), Error);
    EXPECT_THROW(
        socket_scheduled(config, traffic, s, bpu, RobustnessOptions{}),
        Error);
    EXPECT_THROW(socket_scheduled(config, traffic, s, bpu, recovering),
                 Error);
  };
  for (const auto& broken :
       std::vector<void (*)(SocketClusterConfig&)>{
           [](SocketClusterConfig& c) { c.card_out_bps = 0; },
           [](SocketClusterConfig& c) { c.card_in_bps = -1; },
           [](SocketClusterConfig& c) { c.backbone_bps = 0; },
           [](SocketClusterConfig& c) { c.chunk_bytes = 0; },
           [](SocketClusterConfig& c) { c.burst_bytes = 0; }}) {
    SocketClusterConfig config = test_cluster();
    broken(config);
    throws_everywhere(config, 1000.0);
  }
  throws_everywhere(test_cluster(), 0.0);

  RobustnessOptions no_deadline = recovering;
  no_deadline.io_timeout_ms = 0;
  EXPECT_THROW(socket_scheduled(test_cluster(), traffic, s, 1000.0,
                                no_deadline),
               Error);
  RobustnessOptions negative_budget = recovering;
  negative_budget.max_reschedules = -1;
  EXPECT_THROW(socket_scheduled(test_cluster(), traffic, s, 1000.0,
                                negative_budget),
               Error);
}

// The paper's scheduled mode allows one synchronous communication per
// sender per step; a schedule that breaks that is refused, not run.
TEST(SocketRedistribute, RejectsOnePortViolation) {
  TrafficMatrix traffic(2, 2);
  traffic.set(0, 0, 4000);
  traffic.set(0, 1, 4000);
  Step step;
  step.comms.push_back(Communication{0, 0, 1});
  step.comms.push_back(Communication{0, 1, 1});
  Schedule s;
  s.add_step(step);
  EXPECT_THROW(socket_scheduled(test_cluster(), traffic, s, 4000.0), Error);
  RobustnessOptions recovering;
  recovering.enabled = true;
  recovering.resolve = SolverOptions{1, 0, Algorithm::kGGP};
  EXPECT_THROW(
      socket_scheduled(test_cluster(), traffic, s, 4000.0, recovering),
      Error);
}

// Every communication sends its plan_bytes piece (kpbs/schedule.hpp): a
// schedule that sends on a pair without demand, or falls short of a
// pair's bytes, is refused rather than skipped or topped up with an extra
// trailing step.
TEST(SocketRedistribute, RejectsCommunicationOnAPhantomPair) {
  TrafficMatrix traffic(2, 2);
  traffic.set(0, 0, 4000);
  Schedule s;
  s.add_step(Step{{{0, 0, 1}, {1, 1, 1}}});  // nothing to send on 1->1
  EXPECT_THROW(socket_scheduled(test_cluster(), traffic, s, 4000.0), Error);
  RobustnessOptions recovering;
  recovering.enabled = true;
  recovering.resolve = SolverOptions{1, 0, Algorithm::kGGP};
  EXPECT_THROW(
      socket_scheduled(test_cluster(), traffic, s, 4000.0, recovering),
      Error);
}

TEST(SocketRedistribute, RejectsScheduleShortOfTheMatrix) {
  TrafficMatrix traffic(2, 2);
  traffic.set(0, 0, 4000);
  traffic.set(1, 1, 8000);  // two units, scheduled one
  Schedule s;
  s.add_step(Step{{{0, 0, 1}, {1, 1, 1}}});
  EXPECT_THROW(socket_scheduled(test_cluster(), traffic, s, 4000.0), Error);
}

}  // namespace
}  // namespace redist
