#include "oracle/fluid_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace redist::oracle {

namespace {

constexpr double kEps = 1e-9;

struct Constraint {
  double capacity = 0;
  std::vector<int> flows;  // indices of flows crossing this constraint
};

std::vector<Constraint> build_constraints(const Platform& p,
                                          const std::vector<Flow>& flows,
                                          double backbone_bps) {
  std::vector<Constraint> cs;
  cs.resize(static_cast<std::size_t>(p.n1) + static_cast<std::size_t>(p.n2) +
            1);
  for (NodeId i = 0; i < p.n1; ++i) {
    cs[static_cast<std::size_t>(i)].capacity = p.card_out_bps(i);
  }
  for (NodeId j = 0; j < p.n2; ++j) {
    cs[static_cast<std::size_t>(p.n1 + j)].capacity = p.card_in_bps(j);
  }
  cs.back().capacity = backbone_bps;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const Flow& flow = flows[f];
    REDIST_CHECK(flow.src >= 0 && flow.src < p.n1);
    REDIST_CHECK(flow.dst >= 0 && flow.dst < p.n2);
    cs[static_cast<std::size_t>(flow.src)].flows.push_back(
        static_cast<int>(f));
    cs[static_cast<std::size_t>(p.n1 + flow.dst)].flows.push_back(
        static_cast<int>(f));
    cs.back().flows.push_back(static_cast<int>(f));
  }
  return cs;
}

// Progressive filling over the given constraints. Unfrozen flows rise
// proportionally to their fairness weight (weight 1 everywhere = classic
// max-min fairness).
std::vector<double> water_fill(const std::vector<Constraint>& cs,
                               std::size_t flow_count,
                               const std::vector<char>& active,
                               const std::vector<double>& weights) {
  std::vector<double> rate(flow_count, 0.0);
  std::vector<char> frozen(flow_count, 0);
  for (std::size_t f = 0; f < flow_count; ++f) {
    if (!active.empty() && !active[f]) frozen[f] = 1;  // rate stays 0
  }
  auto weight_of = [&](std::size_t f) {
    return weights.empty() ? 1.0 : weights[f];
  };

  auto unfrozen_left = [&]() {
    for (std::size_t f = 0; f < flow_count; ++f) {
      if (!frozen[f]) return true;
    }
    return false;
  };

  while (unfrozen_left()) {
    double delta = std::numeric_limits<double>::infinity();
    for (const Constraint& c : cs) {
      double used = 0;
      double unfrozen_weight = 0;
      for (int f : c.flows) {
        const auto fi = static_cast<std::size_t>(f);
        used += rate[fi];
        if (!frozen[fi]) unfrozen_weight += weight_of(fi);
      }
      if (unfrozen_weight > 0) {
        delta = std::min(delta, (c.capacity - used) / unfrozen_weight);
      }
    }
    REDIST_CHECK(std::isfinite(delta));
    delta = std::max(delta, 0.0);
    for (std::size_t f = 0; f < flow_count; ++f) {
      if (!frozen[f]) rate[f] += delta * weight_of(f);
    }
    // Freeze flows in saturated constraints.
    bool froze_any = false;
    for (const Constraint& c : cs) {
      double used = 0;
      for (int f : c.flows) used += rate[static_cast<std::size_t>(f)];
      if (used >= c.capacity - kEps * std::max(1.0, c.capacity)) {
        for (int f : c.flows) {
          const auto fi = static_cast<std::size_t>(f);
          if (!frozen[fi]) {
            frozen[fi] = 1;
            froze_any = true;
          }
        }
      }
    }
    REDIST_CHECK_MSG(froze_any, "water filling failed to converge");
  }
  return rate;
}

// Offered load on the backbone if it had infinite capacity: the card-limited
// max-min allocation's total.
double offered_load(const Platform& p, const std::vector<Flow>& flows,
                    const std::vector<char>& active,
                    const std::vector<double>& weights) {
  const std::vector<double> rates =
      oracle::max_min_rates(p, flows, active,
                            std::numeric_limits<double>::infinity(), weights);
  double sum = 0;
  for (double r : rates) sum += r;
  return sum;
}

}  // namespace

std::vector<double> max_min_rates(const Platform& p,
                                  const std::vector<Flow>& flows,
                                  const std::vector<char>& active,
                                  double backbone_bps_override,
                                  const std::vector<double>& weights) {
  REDIST_CHECK(p.t1_bps > 0 && p.t2_bps > 0 && p.backbone_bps > 0);
  REDIST_CHECK(weights.empty() || weights.size() == flows.size());
  const double backbone = backbone_bps_override > 0 ? backbone_bps_override
                                                    : p.backbone_bps;
  const std::vector<Constraint> cs = build_constraints(p, flows, backbone);
  return water_fill(cs, flows.size(), active, weights);
}

FluidResult simulate_fluid(const Platform& p, const std::vector<Flow>& flows,
                           const FluidOptions& options) {
  FluidResult result;
  result.completion_seconds.assign(flows.size(), 0.0);
  if (flows.empty()) return result;

  Rng rng(options.seed);
  // Per-flow fairness weights for the whole run (TCP unfairness model).
  std::vector<double> weights;
  if (options.unfairness_stddev > 0) {
    weights.resize(flows.size());
    for (double& w : weights) {
      w = std::exp(rng.normal(0.0, options.unfairness_stddev));
    }
  }
  std::vector<double> remaining(flows.size());
  std::vector<char> active(flows.size(), 1);
  std::size_t active_count = 0;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    REDIST_CHECK_MSG(flows[f].bytes >= 0, "negative flow size");
    remaining[f] = flows[f].bytes;
    if (remaining[f] <= 0) {
      active[f] = 0;
    } else {
      ++active_count;
    }
  }

  double now = 0.0;
  while (active_count > 0) {
    // Congestion penalty on the backbone while it is oversubscribed.
    double backbone = p.backbone_bps;
    if (options.congestion_alpha > 0) {
      const double offered = offered_load(p, flows, active, weights);
      if (offered > p.backbone_bps * (1 + kEps)) {
        const double over = std::log2(offered / p.backbone_bps);
        backbone = p.backbone_bps / (1.0 + options.congestion_alpha * over);
      }
    }
    const std::vector<double> rates =
        oracle::max_min_rates(p, flows, active, backbone, weights);
    ++result.rate_recomputations;

    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (active[f]) {
        REDIST_CHECK_MSG(rates[f] > 0, "active flow got zero rate");
        dt = std::min(dt, remaining[f] / rates[f]);
      }
    }
    REDIST_CHECK(std::isfinite(dt));
    if (options.jitter_stddev > 0) {
      dt *= std::exp(rng.normal(0.0, options.jitter_stddev));
    }
    now += dt;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (!active[f]) continue;
      remaining[f] -= rates[f] * dt;
      if (remaining[f] <= kEps * std::max(1.0, flows[f].bytes)) {
        remaining[f] = 0;
        active[f] = 0;
        --active_count;
        result.completion_seconds[f] = now;
      }
    }
  }
  result.makespan_seconds = now;
  return result;
}

ExecutionResult simulate_bruteforce(const Platform& p,
                                    const TrafficMatrix& traffic,
                                    const FluidOptions& options) {
  std::vector<Flow> flows;
  for (NodeId i = 0; i < p.n1; ++i) {
    for (NodeId j = 0; j < p.n2; ++j) {
      const Bytes b = traffic.at(i, j);
      if (b > 0) flows.push_back(Flow{i, j, static_cast<double>(b)});
    }
  }
  ExecutionResult result;
  result.steps = flows.empty() ? 0 : 1;
  if (!flows.empty()) {
    const FluidResult fluid = oracle::simulate_fluid(p, flows, options);
    result.total_seconds = fluid.makespan_seconds;
    result.transmission_seconds = fluid.makespan_seconds;
  }
  for (const Flow& f : flows) result.bytes_delivered += f.bytes;
  return result;
}

namespace {

// floor(units * unit) for products below 2^53: the fused multiply-add
// gives the sign of the rounding error of the plain product.
Bytes floor_product(Weight units, double unit) {
  const double x = static_cast<double>(units);
  const double f = std::floor(x * unit);
  return static_cast<Bytes>(std::fma(x, unit, -f) < 0 ? f - 1 : f);
}

}  // namespace

ExecutionResult execute_schedule(const Platform& p,
                                 const TrafficMatrix& traffic,
                                 const Schedule& schedule,
                                 double bytes_per_time_unit,
                                 const FluidOptions& options) {
  // Each pair rounds its cumulative units down to whole bytes and its last
  // communication carries the rest.
  using Pair = std::pair<NodeId, NodeId>;
  std::map<Pair, Weight> units_left;
  for (const Step& step : schedule.steps()) {
    for (const Communication& c : step.comms) {
      units_left[{c.sender, c.receiver}] += c.amount;
    }
  }
  std::map<Pair, Weight> units_done;
  std::map<Pair, Bytes> sent;
  ExecutionResult result;
  FluidOptions step_options = options;
  for (const Step& step : schedule.steps()) {
    std::vector<Flow> flows;
    for (const Communication& c : step.comms) {
      const Pair pair{c.sender, c.receiver};
      const Bytes total = traffic.at(c.sender, c.receiver);
      units_done[pair] += c.amount;
      units_left[pair] -= c.amount;
      const Bytes upto =
          units_left[pair] == 0
              ? total
              : std::min(total, floor_product(units_done[pair],
                                              bytes_per_time_unit));
      REDIST_CHECK(upto > sent[pair]);
      const double send = static_cast<double>(upto - sent[pair]);
      sent[pair] = upto;
      flows.push_back(Flow{c.sender, c.receiver, send});
      result.bytes_delivered += send;
    }
    if (flows.empty()) continue;
    step_options.seed = options.seed + result.steps * 0x9E3779B9ULL;
    const FluidResult fluid = oracle::simulate_fluid(p, flows, step_options);
    result.transmission_seconds += fluid.makespan_seconds;
    result.barrier_seconds += p.beta_seconds;
    ++result.steps;
  }
  for (NodeId i = 0; i < p.n1; ++i) {
    for (NodeId j = 0; j < p.n2; ++j) {
      REDIST_CHECK((sent[{i, j}] == traffic.at(i, j)));
    }
  }
  result.total_seconds = result.transmission_seconds + result.barrier_seconds;
  return result;
}

}  // namespace redist::oracle
