// Properties of plan_bytes (kpbs/schedule.hpp), the one place a schedule's
// time units become the bytes each communication carries.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "baselines/list_scheduling.hpp"
#include "common/rng.hpp"
#include "kpbs/schedule.hpp"
#include "kpbs/solver.hpp"

namespace redist {
namespace {

TrafficMatrix random_traffic(Rng& rng) {
  const auto n1 = static_cast<NodeId>(rng.uniform_int(1, 8));
  const auto n2 = static_cast<NodeId>(rng.uniform_int(1, 8));
  TrafficMatrix traffic(n1, n2);
  for (NodeId i = 0; i < n1; ++i) {
    for (NodeId j = 0; j < n2; ++j) {
      if (rng.bernoulli(0.6)) traffic.set(i, j, rng.uniform_int(1, 200'000));
    }
  }
  return traffic;
}

// Checks every property of `plan` against `schedule` and `traffic`.
void expect_plan_properties(const TrafficMatrix& traffic,
                            const Schedule& schedule, const BytePlan& plan,
                            const std::function<double(NodeId, NodeId)>& unit,
                            const std::string& context) {
  using Pair = std::pair<NodeId, NodeId>;
  std::map<Pair, Weight> units_left;
  for (const Step& step : schedule.steps()) {
    for (const Communication& c : step.comms) {
      units_left[{c.sender, c.receiver}] += c.amount;
    }
  }
  std::map<Pair, Weight> units_done;
  std::map<Pair, Bytes> sum;
  ASSERT_EQ(plan.size(), schedule.step_count()) << context;
  for (std::size_t s = 0; s < plan.size(); ++s) {
    const std::vector<Communication>& comms = schedule.steps()[s].comms;
    ASSERT_EQ(plan[s].size(), comms.size()) << context;
    for (std::size_t c = 0; c < comms.size(); ++c) {
      const BytePiece& piece = plan[s][c];
      const Pair pair{comms[c].sender, comms[c].receiver};
      ASSERT_EQ(piece.sender, pair.first) << context;
      ASSERT_EQ(piece.receiver, pair.second) << context;
      EXPECT_GE(piece.bytes, 1) << context;
      sum[pair] += piece.bytes;
      units_done[pair] += comms[c].amount;
      const bool last = (units_left[pair] -= comms[c].amount) == 0;
      const double u = unit(pair.first, pair.second);
      if (last) {
        // The rest: never more than the units are worth, rounded up.
        EXPECT_LE(static_cast<double>(piece.bytes),
                  std::ceil(static_cast<double>(comms[c].amount) * u))
            << context;
        continue;
      }
      if (u == std::floor(u)) {
        EXPECT_EQ(piece.bytes, comms[c].amount * static_cast<Bytes>(u))
            << context;
      }
      // The bytes sent so far are the cumulative units' worth rounded
      // down: sum <= units * u < sum + 1, signs taken exactly with fma.
      const auto done = static_cast<double>(units_done[pair]);
      EXPECT_GE(std::fma(done, u, -static_cast<double>(sum[pair])), 0.0)
          << context;
      EXPECT_LT(std::fma(done, u, -static_cast<double>(sum[pair] + 1)), 0.0)
          << context;
    }
  }
  for (NodeId i = 0; i < traffic.senders(); ++i) {
    for (NodeId j = 0; j < traffic.receivers(); ++j) {
      EXPECT_EQ((sum[{i, j}]), traffic.at(i, j))
          << context << " pair " << i << "->" << j;
    }
  }
}

TEST(BytePlan, PiecesCoverEveryPairExactly) {
  Rng rng(0xB17E5);
  for (int trial = 0; trial < 120; ++trial) {
    const TrafficMatrix traffic = random_traffic(rng);
    if (traffic.total() == 0) continue;
    // Integral, non-integral and per-pair units in turn.
    const double base = trial % 3 == 0
                            ? static_cast<double>(rng.uniform_int(1, 5000))
                            : rng.uniform_real(1.0, 5000.0);
    std::vector<double> s1;
    std::vector<double> s2;
    if (trial % 3 == 2) {
      for (NodeId i = 0; i < traffic.senders(); ++i) {
        s1.push_back(rng.uniform_real(1.0, 3.0));
      }
      for (NodeId j = 0; j < traffic.receivers(); ++j) {
        s2.push_back(rng.uniform_real(1.0, 3.0));
      }
    }
    const auto unit = [&](NodeId i, NodeId j) {
      return s1.empty() ? base
                        : base * std::min(s1[static_cast<std::size_t>(i)],
                                          s2[static_cast<std::size_t>(j)]);
    };
    BipartiteGraph demand(traffic.senders(), traffic.receivers());
    for (NodeId i = 0; i < traffic.senders(); ++i) {
      for (NodeId j = 0; j < traffic.receivers(); ++j) {
        if (traffic.at(i, j) > 0) {
          demand.add_edge(i, j, time_units(traffic.at(i, j), unit(i, j)));
        }
      }
    }
    const int k = static_cast<int>(rng.uniform_int(1, 8));
    const Weight beta = rng.uniform_int(0, 3);
    const std::vector<std::pair<std::string, Schedule>> schedules{
        {"ggp", solve_kpbs(demand, {k, beta, Algorithm::kGGP}).schedule},
        {"oggp", solve_kpbs(demand, {k, beta, Algorithm::kOGGP}).schedule},
        {"list", list_schedule(demand, k)}};
    for (const auto& [name, schedule] : schedules) {
      const std::string context =
          "trial " + std::to_string(trial) + " " + name;
      expect_plan_properties(traffic, schedule,
                             plan_bytes(traffic, schedule, unit), unit,
                             context);
    }
  }
}

// 10 bytes at 2.5 bytes per unit, one unit at a time: cumulative floors
// 2, 5, 7, then the rest.
TEST(BytePlan, NonIntegralUnitRoundsCumulativeUnitsDown) {
  TrafficMatrix traffic(1, 1);
  traffic.set(0, 0, 10);
  Schedule schedule;
  for (int s = 0; s < 4; ++s) schedule.add_step(Step{{{0, 0, 1}}});
  const BytePlan plan = plan_bytes(traffic, schedule, 2.5);
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0][0].bytes, 2);
  EXPECT_EQ(plan[1][0].bytes, 3);
  EXPECT_EQ(plan[2][0].bytes, 2);
  EXPECT_EQ(plan[3][0].bytes, 3);
}

// The paper testbed's unit at k = 3 (1e8 / 24 bytes) is not a whole byte
// count; a pair of exactly six units' worth still gets every byte.
TEST(BytePlan, TestbedUnitCoversItsOwnMultiples) {
  const double unit = 1e8 / 24;
  TrafficMatrix traffic(1, 2);
  traffic.set(0, 0, 25'000'000);
  traffic.set(0, 1, 25'000'001);
  const Schedule schedule =
      solve_kpbs(traffic.to_graph(unit), {1, 0, Algorithm::kGGP}).schedule;
  Bytes total = 0;
  for (const std::vector<BytePiece>& pieces :
       plan_bytes(traffic, schedule, unit)) {
    for (const BytePiece& piece : pieces) total += piece.bytes;
  }
  EXPECT_EQ(total, traffic.total());
}

TEST(BytePlan, EmptyScheduleOfEmptyMatrix) {
  EXPECT_TRUE(plan_bytes(TrafficMatrix(2, 2), Schedule{}, 100.0).empty());
}

Schedule one_step(std::vector<Communication> comms) {
  Schedule s;
  s.add_step(Step{std::move(comms)});
  return s;
}

TEST(BytePlan, RejectsCommunicationOnAPairWithNoDemand) {
  TrafficMatrix traffic(2, 2);
  traffic.set(0, 0, 100);
  Schedule phantom = one_step({{0, 0, 1}});
  phantom.add_step(Step{{{1, 1, 1}}});
  EXPECT_THROW(plan_bytes(traffic, phantom, 100.0), Error);
  // Two units where one covers the pair: the first already sends it all.
  Schedule served_twice = one_step({{0, 0, 1}});
  served_twice.add_step(Step{{{0, 0, 1}}});
  EXPECT_THROW(plan_bytes(traffic, served_twice, 100.0), Error);
}

TEST(BytePlan, RejectsOnePortViolations) {
  // Each matrix holds exactly the step's two pairs, so only the 1-port
  // rule is broken.
  TrafficMatrix one_sender(2, 2);
  one_sender.set(0, 0, 100);
  one_sender.set(0, 1, 100);
  EXPECT_THROW(
      plan_bytes(one_sender, one_step({{0, 0, 1}, {0, 1, 1}}), 100.0), Error);
  TrafficMatrix one_receiver(2, 2);
  one_receiver.set(0, 0, 100);
  one_receiver.set(1, 0, 100);
  EXPECT_THROW(
      plan_bytes(one_receiver, one_step({{0, 0, 1}, {1, 0, 1}}), 100.0),
      Error);
  // The same pairs in two steps are fine.
  Schedule two_steps = one_step({{0, 0, 1}});
  two_steps.add_step(Step{{{1, 0, 1}}});
  EXPECT_EQ(plan_bytes(one_receiver, two_steps, 100.0).size(), 2u);
}

TEST(BytePlan, RejectsSchedulesThatFallShort) {
  TrafficMatrix traffic(2, 2);
  traffic.set(0, 0, 250);
  traffic.set(1, 1, 100);
  // (0, 0) needs three units of 100 bytes.
  EXPECT_THROW(plan_bytes(traffic, one_step({{0, 0, 2}, {1, 1, 1}}), 100.0),
               Error);
  // (1, 1) is never served.
  EXPECT_THROW(plan_bytes(traffic, one_step({{0, 0, 3}}), 100.0), Error);
}

TEST(BytePlan, RejectsNonPositiveAmounts) {
  TrafficMatrix traffic(1, 1);
  traffic.set(0, 0, 100);
  EXPECT_THROW(plan_bytes(traffic, one_step({{0, 0, 0}}), 100.0), Error);
}

TEST(BytePlan, RejectsAUnitUnderOneByte) {
  TrafficMatrix traffic(1, 2);
  traffic.set(0, 0, 1);
  traffic.set(0, 1, 1);
  Schedule schedule = one_step({{0, 0, 2}});
  schedule.add_step(Step{{{0, 1, 1}}});
  EXPECT_THROW(plan_bytes(traffic, schedule, 0.5), Error);
  EXPECT_THROW(plan_bytes(traffic, schedule,
                          [](NodeId, NodeId j) { return j == 1 ? 0.9 : 4.0; }),
               Error);
}

}  // namespace
}  // namespace redist
