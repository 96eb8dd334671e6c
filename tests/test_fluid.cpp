#include "netsim/fluid.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <string>

namespace redist {
namespace {

Platform small_platform() {
  Platform p;
  p.n1 = 2;
  p.n2 = 2;
  p.t1_bps = 100;
  p.t2_bps = 100;
  p.backbone_bps = 1000;
  return p;
}

TEST(Platform, MaxKFormula) {
  Platform p;
  p.n1 = 200;
  p.n2 = 100;
  p.t1_bps = 10;
  p.t2_bps = 10;  // the paper's example uses per-comm speed t = 10
  p.backbone_bps = 1000;
  EXPECT_EQ(p.max_k(), 100);  // limited by n2, matching Section 2.1
  p.n2 = 300;
  EXPECT_EQ(p.max_k(), 100);  // now limited by T/t
}

TEST(Platform, PaperTestbed) {
  const Platform p = paper_testbed(5);
  EXPECT_EQ(p.n1, 10);
  EXPECT_DOUBLE_EQ(p.t1_bps, 20.0 * 125000.0);  // 100/5 Mbit/s
  EXPECT_EQ(p.max_k(), 5);
}

TEST(Fluid, SingleFlowLimitedByCard) {
  const Platform p = small_platform();
  const FluidResult r = simulate_fluid(p, {Flow{0, 0, 1000}});
  EXPECT_NEAR(r.makespan_seconds, 10.0, 1e-6);  // 1000 bytes at 100 B/s
}

TEST(Fluid, DisjointFlowsRunInParallel) {
  const Platform p = small_platform();
  const FluidResult r =
      simulate_fluid(p, {Flow{0, 0, 1000}, Flow{1, 1, 500}});
  EXPECT_NEAR(r.makespan_seconds, 10.0, 1e-6);
  EXPECT_NEAR(r.completion_seconds[1], 5.0, 1e-6);
}

TEST(Fluid, SharedSenderCardSplitsBandwidth) {
  const Platform p = small_platform();
  // Two flows from sender 0: each gets 50 B/s until the short one ends.
  const FluidResult r =
      simulate_fluid(p, {Flow{0, 0, 500}, Flow{0, 1, 500}});
  EXPECT_NEAR(r.completion_seconds[0], 10.0, 1e-6);
  EXPECT_NEAR(r.completion_seconds[1], 10.0, 1e-6);
}

TEST(Fluid, ShortFlowReleasesBandwidth) {
  const Platform p = small_platform();
  // 250 and 750 bytes share sender 0; after the short one finishes at t=5,
  // the long one gets the full card: 5 + (750-250)/100 = 10.
  const FluidResult r =
      simulate_fluid(p, {Flow{0, 0, 250}, Flow{0, 1, 750}});
  EXPECT_NEAR(r.completion_seconds[0], 5.0, 1e-6);
  EXPECT_NEAR(r.completion_seconds[1], 10.0, 1e-6);
  EXPECT_EQ(r.rate_recomputations, 2);
}

TEST(Fluid, BackboneBottleneck) {
  Platform p = small_platform();
  p.backbone_bps = 100;  // both flows squeeze through 100 B/s total
  const FluidResult r =
      simulate_fluid(p, {Flow{0, 0, 500}, Flow{1, 1, 500}});
  EXPECT_NEAR(r.makespan_seconds, 10.0, 1e-6);
}

TEST(Fluid, ReceiverCardBottleneck) {
  const Platform p = small_platform();
  // Two senders into one receiver: 100 B/s shared.
  const FluidResult r =
      simulate_fluid(p, {Flow{0, 0, 400}, Flow{1, 0, 400}});
  EXPECT_NEAR(r.makespan_seconds, 8.0, 1e-6);
}

TEST(Fluid, MaxMinRatesDirectly) {
  const Platform p = small_platform();
  const std::vector<Flow> flows{Flow{0, 0, 1}, Flow{0, 1, 1}, Flow{1, 1, 1}};
  const std::vector<double> rates = max_min_rates(p, flows, {});
  // Sender 0 splits 100 across two flows; receiver 1 takes 50 from flow 1
  // and has 50 headroom for flow 2, but flow 2's sender card allows 100;
  // receiver 1 caps flow1 + flow2 <= 100 -> flow2 = 50... then sender 1 has
  // slack; max-min: f0 = 50, f1 = 50, f2 = 50.
  EXPECT_NEAR(rates[0], 50, 1e-6);
  EXPECT_NEAR(rates[1], 50, 1e-6);
  EXPECT_NEAR(rates[2], 50, 1e-6);
}

TEST(Fluid, ConservationOfBytes) {
  const Platform p = small_platform();
  const std::vector<Flow> flows{Flow{0, 0, 123}, Flow{0, 1, 456},
                                Flow{1, 0, 789}, Flow{1, 1, 321}};
  const FluidResult r = simulate_fluid(p, flows);
  // Completion time of every flow must be positive and <= makespan.
  for (double t : r.completion_seconds) {
    EXPECT_GT(t, 0);
    EXPECT_LE(t, r.makespan_seconds + 1e-9);
  }
}

TEST(Fluid, ZeroByteFlowsCompleteInstantly) {
  const Platform p = small_platform();
  const FluidResult r = simulate_fluid(p, {Flow{0, 0, 0}, Flow{1, 1, 100}});
  EXPECT_DOUBLE_EQ(r.completion_seconds[0], 0.0);
  EXPECT_NEAR(r.makespan_seconds, 1.0, 1e-6);
}

TEST(Fluid, CongestionPenaltySlowsOversubscribedBackbone) {
  Platform p = small_platform();
  p.backbone_bps = 100;  // offered 200 > 100
  FluidOptions penalized;
  penalized.congestion_alpha = 0.5;
  const std::vector<Flow> flows{Flow{0, 0, 500}, Flow{1, 1, 500}};
  const double clean = simulate_fluid(p, flows).makespan_seconds;
  const double congested = simulate_fluid(p, flows, penalized).makespan_seconds;
  EXPECT_GT(congested, clean * 1.2);
}

TEST(Fluid, NoPenaltyWhenBackboneHasHeadroom) {
  const Platform p = small_platform();  // backbone 1000 >> offered 200
  FluidOptions penalized;
  penalized.congestion_alpha = 0.5;
  const std::vector<Flow> flows{Flow{0, 0, 500}, Flow{1, 1, 500}};
  const double clean = simulate_fluid(p, flows).makespan_seconds;
  const double maybe = simulate_fluid(p, flows, penalized).makespan_seconds;
  EXPECT_NEAR(maybe, clean, 1e-9);
}

TEST(Fluid, JitterIsSeededAndNonDegenerate) {
  const Platform p = small_platform();
  const std::vector<Flow> flows{Flow{0, 0, 500}, Flow{0, 1, 400},
                                Flow{1, 0, 300}};
  FluidOptions a;
  a.jitter_stddev = 0.05;
  a.seed = 10;
  FluidOptions b = a;
  b.seed = 20;
  const double ta = simulate_fluid(p, flows, a).makespan_seconds;
  const double ta2 = simulate_fluid(p, flows, a).makespan_seconds;
  const double tb = simulate_fluid(p, flows, b).makespan_seconds;
  EXPECT_DOUBLE_EQ(ta, ta2);  // reproducible
  EXPECT_NE(ta, tb);          // but seed-dependent
}

TEST(Fluid, WeightedWaterFillingFavorsHeavyFlows) {
  Platform p = small_platform();
  p.backbone_bps = 100;  // shared bottleneck
  const std::vector<Flow> flows{Flow{0, 0, 1}, Flow{1, 1, 1}};
  const std::vector<double> rates =
      max_min_rates(p, flows, {}, 0, {3.0, 1.0});
  EXPECT_NEAR(rates[0], 75, 1e-6);
  EXPECT_NEAR(rates[1], 25, 1e-6);
  // Capacity is still fully used and constraints respected.
  EXPECT_NEAR(rates[0] + rates[1], 100, 1e-6);
}

TEST(Fluid, WeightedFillStillRespectsCardCeilings) {
  const Platform p = small_platform();  // cards 100, backbone 1000
  const std::vector<Flow> flows{Flow{0, 0, 1}, Flow{1, 1, 1}};
  // Even a weight-100 flow cannot exceed its card.
  const std::vector<double> rates =
      max_min_rates(p, flows, {}, 0, {100.0, 1.0});
  EXPECT_NEAR(rates[0], 100, 1e-6);
  EXPECT_NEAR(rates[1], 100, 1e-6);
}

TEST(Fluid, UnfairnessSpreadsCompletionTimes) {
  // Cards slower than the backbone (the paper's shaped-card setup): a
  // ragged unfair tail cannot refill the backbone, so the makespan grows.
  Platform p = small_platform();
  p.t1_bps = 60;
  p.t2_bps = 60;
  p.backbone_bps = 100;
  std::vector<Flow> flows;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      flows.push_back(Flow{static_cast<NodeId>(i), static_cast<NodeId>(j),
                           1000});
    }
  }
  FluidOptions fair;
  FluidOptions unfair;
  unfair.unfairness_stddev = 0.8;
  unfair.seed = 3;
  const FluidResult a = simulate_fluid(p, flows, fair);
  const FluidResult b = simulate_fluid(p, flows, unfair);
  // Equal-size flows through one bottleneck complete together when fair...
  double spread_fair = 0;
  double spread_unfair = 0;
  for (double t : a.completion_seconds) {
    spread_fair = std::max(spread_fair, a.makespan_seconds - t);
  }
  for (double t : b.completion_seconds) {
    spread_unfair = std::max(spread_unfair, b.makespan_seconds - t);
  }
  EXPECT_NEAR(spread_fair, 0.0, 1e-9);
  EXPECT_GT(spread_unfair, 1.0);
  // ...and unfairness makes the makespan worse (ragged card-limited tail).
  EXPECT_GT(b.makespan_seconds, a.makespan_seconds);
}

TEST(Fluid, HeterogeneousCardsRespectPerNodeCeilings) {
  Platform p = small_platform();
  p.t1_per_node = {30, 100};  // sender 0 has a slow card
  const FluidResult r =
      simulate_fluid(p, {Flow{0, 0, 300}, Flow{1, 1, 300}});
  EXPECT_NEAR(r.completion_seconds[0], 10.0, 1e-6);  // 300 B at 30 B/s
  EXPECT_NEAR(r.completion_seconds[1], 3.0, 1e-6);
}

TEST(Fluid, HeterogeneousReceiverCards) {
  Platform p = small_platform();
  p.t2_per_node = {100, 25};
  const FluidResult r =
      simulate_fluid(p, {Flow{0, 1, 100}});
  EXPECT_NEAR(r.makespan_seconds, 4.0, 1e-6);
}

TEST(Fluid, HeterogeneousOverrideSizeChecked) {
  Platform p = small_platform();
  p.t1_per_node = {100};  // wrong size for n1 = 2
  EXPECT_THROW(simulate_fluid(p, {Flow{1, 0, 10}}), Error);
}

// The message of the redist::Error `f` throws ("" if it throws none).
template <typename F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Fluid, HeterogeneousOverrideTooLongRejected) {
  Platform p = small_platform();
  p.t1_per_node = {100, 100, 100};  // n1 = 2
  EXPECT_NE(error_of([&] { simulate_fluid(p, {Flow{1, 0, 10}}); })
                .find("t1_per_node must be empty or hold n1 = 2 entries"),
            std::string::npos);
  p.t1_per_node.clear();
  p.t2_per_node = {100, 100, 100};  // n2 = 2
  EXPECT_NE(error_of([&] { max_min_rates(p, {Flow{1, 0, 10}}, {}); })
                .find("t2_per_node must be empty or hold n2 = 2 entries"),
            std::string::npos);
}

TEST(Fluid, HeterogeneousOverrideTooShortRejectedWhenUnread) {
  Platform p = small_platform();
  p.t1_per_node = {100};  // n1 = 2, and no flow leaves sender 1
  EXPECT_THROW(simulate_fluid(p, {Flow{0, 0, 10}}), Error);
}

TEST(Fluid, RejectsNonPositiveWeights) {
  const Platform p = small_platform();
  const std::vector<Flow> flows{Flow{0, 0, 1}, Flow{1, 1, 1}};
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_NE(error_of([&] { max_min_rates(p, flows, {}, 0, {1.0, bad}); })
                  .find("fairness weight must be finite and > 0"),
              std::string::npos)
        << "weight " << bad;
  }
}

TEST(Fluid, RejectsMismatchedWeightVector) {
  const Platform p = small_platform();
  const std::vector<Flow> flows{Flow{0, 0, 1}};
  EXPECT_THROW(max_min_rates(p, flows, {}, 0, {1.0, 2.0}), Error);
}

TEST(Fluid, RejectsOutOfRangeEndpoints) {
  const Platform p = small_platform();
  EXPECT_THROW(simulate_fluid(p, {Flow{5, 0, 10}}), Error);
  EXPECT_THROW(simulate_fluid(p, {Flow{0, 5, 10}}), Error);
  EXPECT_THROW(simulate_fluid(p, {Flow{0, 0, -1}}), Error);
}

}  // namespace
}  // namespace redist
