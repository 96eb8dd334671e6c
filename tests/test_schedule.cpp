#include "kpbs/schedule.hpp"

#include <gtest/gtest.h>

namespace redist {
namespace {

BipartiteGraph demand_2x2() {
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0, 3);
  g.add_edge(1, 1, 5);
  return g;
}

Schedule good_schedule() {
  Schedule s;
  s.add_step(Step{{{0, 0, 3}, {1, 1, 2}}});
  s.add_step(Step{{{1, 1, 3}}});  // preempted remainder of the 5
  return s;
}

TEST(Schedule, CostAccounting) {
  const Schedule s = good_schedule();
  EXPECT_EQ(s.step_count(), 2u);
  EXPECT_EQ(s.steps()[0].duration(), 3);
  EXPECT_EQ(s.steps()[1].duration(), 3);
  EXPECT_EQ(s.total_transmission(), 6);
  EXPECT_EQ(s.cost(0), 6);
  EXPECT_EQ(s.cost(2), 10);
  EXPECT_EQ(s.total_amount(), 8);
  EXPECT_EQ(s.steps()[0].comms.size(), 2u);
}

TEST(Schedule, NegativeBetaRejected) {
  EXPECT_THROW(good_schedule().cost(-1), Error);
}

TEST(Schedule, ValidSchedulePasses) {
  const BipartiteGraph g = demand_2x2();
  validate_schedule(g, good_schedule(), 2);
  EXPECT_TRUE(schedule_is_valid(g, good_schedule(), 2));
}

TEST(Schedule, DetectsKViolation) {
  const BipartiteGraph g = demand_2x2();
  std::string why;
  EXPECT_FALSE(schedule_is_valid(g, good_schedule(), 1, &why));
  EXPECT_NE(why.find("> k=1"), std::string::npos);
}

TEST(Schedule, DetectsOnePortSenderViolation) {
  BipartiteGraph g(1, 2);
  g.add_edge(0, 0, 1);
  g.add_edge(0, 1, 1);
  Schedule s;
  s.add_step(Step{{{0, 0, 1}, {0, 1, 1}}});  // same sender twice
  std::string why;
  EXPECT_FALSE(schedule_is_valid(g, s, 2, &why));
  EXPECT_NE(why.find("sender 0"), std::string::npos);
}

TEST(Schedule, DetectsOnePortReceiverViolation) {
  BipartiteGraph g(2, 1);
  g.add_edge(0, 0, 1);
  g.add_edge(1, 0, 1);
  Schedule s;
  s.add_step(Step{{{0, 0, 1}, {1, 0, 1}}});
  std::string why;
  EXPECT_FALSE(schedule_is_valid(g, s, 2, &why));
  EXPECT_NE(why.find("receiver 0"), std::string::npos);
}

TEST(Schedule, DetectsUnderDelivery) {
  const BipartiteGraph g = demand_2x2();
  Schedule s;
  s.add_step(Step{{{0, 0, 3}, {1, 1, 4}}});  // one unit short on (1,1)
  std::string why;
  EXPECT_FALSE(schedule_is_valid(g, s, 2, &why));
  EXPECT_NE(why.find("transferred 4 of demanded 5 (under-transfer)"),
            std::string::npos);
}

TEST(Schedule, DetectsOverDelivery) {
  const BipartiteGraph g = demand_2x2();
  Schedule s;
  s.add_step(Step{{{0, 0, 3}, {1, 1, 6}}});
  EXPECT_FALSE(schedule_is_valid(g, s, 2));
}

TEST(Schedule, DetectsPhantomPair) {
  const BipartiteGraph g = demand_2x2();
  Schedule s = good_schedule();
  s.add_step(Step{{{0, 1, 1}}});  // no demand on (0,1)
  std::string why;
  EXPECT_FALSE(schedule_is_valid(g, s, 2, &why));
  EXPECT_NE(why.find("no demand"), std::string::npos);
}

TEST(Schedule, DetectsNonPositiveAmount) {
  const BipartiteGraph g = demand_2x2();
  Schedule s;
  s.add_step(Step{{{0, 0, 0}}});
  EXPECT_FALSE(schedule_is_valid(g, s, 2));
}

TEST(Schedule, DetectsOutOfRangeNodes) {
  const BipartiteGraph g = demand_2x2();
  Schedule s;
  s.add_step(Step{{{5, 0, 1}}});
  EXPECT_FALSE(schedule_is_valid(g, s, 2));
}

TEST(Schedule, ParallelEdgesSumPerPair) {
  BipartiteGraph g(1, 1);
  g.add_edge(0, 0, 2);
  g.add_edge(0, 0, 3);  // parallel edge; pair total is 5
  Schedule s;
  s.add_step(Step{{{0, 0, 5}}});
  EXPECT_TRUE(schedule_is_valid(g, s, 1));
}

TEST(Schedule, ValidateThrowsWithMessage) {
  const BipartiteGraph g = demand_2x2();
  Schedule s;  // empty: delivers nothing
  EXPECT_THROW(validate_schedule(g, s, 2), Error);
}

TEST(Schedule, ToStringMentionsSteps) {
  const std::string dump = good_schedule().to_string();
  EXPECT_NE(dump.find("2 step(s)"), std::string::npos);
  EXPECT_NE(dump.find("0->0:3"), std::string::npos);
}

}  // namespace
}  // namespace redist
