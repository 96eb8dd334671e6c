// Mutation-based property test of the ScheduleValidator: start from a
// known-good OGGP schedule on a random instance, apply one of five seeded
// corruption kinds, and the validator must reject the result every time,
// flagging the right invariant. This is the adversarial counterpart to the
// acceptance tests in test_validate.cpp — a validator that accepts
// corrupted schedules is worse than none.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "kpbs/regularize.hpp"
#include "kpbs/schedule_validator.hpp"
#include "kpbs/solver.hpp"
#include "workload/random_graphs.hpp"

namespace redist {
namespace {

Schedule rebuild(std::vector<Step> steps) {
  Schedule s;
  for (Step& step : steps) s.add_step(std::move(step));
  return s;
}

std::vector<Step> copy_steps(const Schedule& s) { return s.steps(); }

struct Instance {
  BipartiteGraph graph;
  Schedule schedule;
  int k = 0;
  Weight beta = 0;
};

Instance make_instance(Rng& rng) {
  RandomGraphConfig config;
  config.max_left = 10;
  config.max_right = 10;
  config.max_edges = 30;
  BipartiteGraph g = random_bipartite(rng, config);
  const int k = clamp_k(g, static_cast<int>(rng.uniform_int(2, 5)));
  const Weight beta = rng.uniform_int(0, 4);
  Schedule s = solve_kpbs(g, {k, beta, Algorithm::kOGGP}).schedule;
  return Instance{std::move(g), std::move(s), k, beta};
}

ValidationReport run_validator(const Instance& inst, const Schedule& s,
                               Weight reported_makespan = -1) {
  ScheduleValidatorOptions options;
  options.k = inst.k;
  options.beta = inst.beta;
  options.reported_makespan = reported_makespan;
  return ScheduleValidator(options).validate(inst.graph, s);
}

constexpr int kTrials = 40;

TEST(ValidatorMutations, PristineSchedulesPass) {
  Rng rng(101);
  for (int trial = 0; trial < kTrials; ++trial) {
    const Instance inst = make_instance(rng);
    const ValidationReport report = run_validator(inst, inst.schedule);
    ASSERT_TRUE(report.ok()) << report.to_string();
  }
}

// Corruption 1 — drop a piece: remove one communication; its (sender,
// receiver) pair now under-transfers.
TEST(ValidatorMutations, DroppedPieceIsRejected) {
  Rng rng(102);
  for (int trial = 0; trial < kTrials; ++trial) {
    const Instance inst = make_instance(rng);
    ASSERT_GT(inst.schedule.step_count(), 0u);
    std::vector<Step> steps = copy_steps(inst.schedule);
    const auto si = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(steps.size()) - 1));
    auto& comms = steps[si].comms;
    ASSERT_FALSE(comms.empty());
    const auto ci = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(comms.size()) - 1));
    comms.erase(comms.begin() + static_cast<std::ptrdiff_t>(ci));
    if (comms.empty()) steps.erase(steps.begin() + static_cast<std::ptrdiff_t>(si));

    const ValidationReport report = run_validator(inst, rebuild(steps));
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.has(InvariantKind::kCoverage)) << report.to_string();
  }
}

// Corruption 2 — duplicate an edge: replay one communication in its own
// extra step; the pair now over-transfers (the step itself is a fine
// 1-element matching, so only coverage can catch this).
TEST(ValidatorMutations, DuplicatedEdgeIsRejected) {
  Rng rng(103);
  for (int trial = 0; trial < kTrials; ++trial) {
    const Instance inst = make_instance(rng);
    std::vector<Step> steps = copy_steps(inst.schedule);
    const auto si = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(steps.size()) - 1));
    ASSERT_FALSE(steps[si].comms.empty());
    Step extra;
    extra.comms.push_back(steps[si].comms.front());
    steps.push_back(std::move(extra));

    const ValidationReport report = run_validator(inst, rebuild(steps));
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.has(InvariantKind::kCoverage)) << report.to_string();
  }
}

// Corruption 3 — exceed k: pad one step with copies of its first
// communication until it holds k + 1; the width invariant must fire
// (other invariants may fire too, but width must be among them).
TEST(ValidatorMutations, OverwideStepIsRejected) {
  Rng rng(104);
  for (int trial = 0; trial < kTrials; ++trial) {
    const Instance inst = make_instance(rng);
    std::vector<Step> steps = copy_steps(inst.schedule);
    Step& victim = steps.front();
    ASSERT_FALSE(victim.comms.empty());
    while (victim.comms.size() <= static_cast<std::size_t>(inst.k)) {
      victim.comms.push_back(victim.comms.front());
    }

    const ValidationReport report = run_validator(inst, rebuild(steps));
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.has(InvariantKind::kStepWidth)) << report.to_string();
  }
}

// Corruption 4 — conflicting endpoints: give one step a second
// communication from a sender it already uses (1-port violation). The
// amounts are split so coverage stays exact — only the matching invariant
// can catch this one.
TEST(ValidatorMutations, ConflictingEndpointsAreRejected) {
  Rng rng(105);
  int applied = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const Instance inst = make_instance(rng);
    std::vector<Step> steps = copy_steps(inst.schedule);
    // Find a communication with amount >= 2 and split it inside its step.
    bool done = false;
    for (Step& step : steps) {
      for (Communication& c : step.comms) {
        if (c.amount < 2) continue;
        Communication half = c;
        half.amount = c.amount / 2;
        c.amount -= half.amount;
        step.comms.push_back(half);  // same sender AND receiver reused
        done = true;
        break;
      }
      if (done) break;
    }
    if (!done) continue;  // all-unit schedule: nothing to split
    ++applied;

    const ValidationReport report = run_validator(inst, rebuild(steps));
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.has(InvariantKind::kMatching)) << report.to_string();
    EXPECT_FALSE(report.has(InvariantKind::kCoverage)) << report.to_string();
  }
  EXPECT_GT(applied, kTrials / 2);
}

// Corruption 5 — misreported makespan: the schedule itself is untouched
// but the externally claimed makespan is off by one.
TEST(ValidatorMutations, MisreportedMakespanIsRejected) {
  Rng rng(106);
  for (int trial = 0; trial < kTrials; ++trial) {
    const Instance inst = make_instance(rng);
    const Weight honest = inst.schedule.cost(inst.beta);
    ASSERT_TRUE(run_validator(inst, inst.schedule, honest).ok());

    const ValidationReport report =
        run_validator(inst, inst.schedule, honest + 1);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.has(InvariantKind::kMakespan)) << report.to_string();
  }
}

}  // namespace
}  // namespace redist
