#include "netsim/fluid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace redist {

namespace {

constexpr double kEps = 1e-9;

// Rejects malformed inputs once, before any constraint is built.
void check_inputs(const Platform& p, const std::vector<Flow>& flows,
                  const std::vector<double>& weights) {
  REDIST_CHECK(p.t1_bps > 0 && p.t2_bps > 0 && p.backbone_bps > 0);
  REDIST_CHECK_MSG(
      p.t1_per_node.empty() ||
          p.t1_per_node.size() == static_cast<std::size_t>(p.n1),
      "t1_per_node must be empty or hold n1 = "
          << p.n1 << " entries, got " << p.t1_per_node.size());
  REDIST_CHECK_MSG(
      p.t2_per_node.empty() ||
          p.t2_per_node.size() == static_cast<std::size_t>(p.n2),
      "t2_per_node must be empty or hold n2 = "
          << p.n2 << " entries, got " << p.t2_per_node.size());
  REDIST_CHECK_MSG(weights.empty() || weights.size() == flows.size(),
                   "got " << weights.size() << " fairness weights for "
                          << flows.size() << " flows");
  for (const double w : weights) {
    REDIST_CHECK_MSG(std::isfinite(w) && w > 0,
                     "fairness weight must be finite and > 0, got " << w);
  }
  for (const Flow& flow : flows) {
    REDIST_CHECK(flow.src >= 0 && flow.src < p.n1);
    REDIST_CHECK(flow.dst >= 0 && flow.dst < p.n2);
  }
}

// Progressive filling over one flow set. The constraints — the sender and
// receiver card of every node that carries an active flow, then the
// backbone — are built once and kept across flow completions. Each lists
// its active flows in ascending order, so every sum below adds the same
// nonzero terms in the same order as a fill over all flows and all
// n1 + n2 + 1 constraints would: a finished flow only ever added +0.0, and
// a constraint without an unfrozen flow can neither lower a round's step
// nor freeze a new flow. The rates are therefore bit-identical to that
// from-scratch fill (tests/oracle/fluid_oracle.hpp).
class FluidNetwork {
 public:
  FluidNetwork(const Platform& p, const std::vector<Flow>& flows,
               const std::vector<char>& active,
               const std::vector<double>& weights)
      : rate_(flows.size(), 0.0),
        weight_(flows.size(), 1.0),
        frozen_(flows.size(), 0),
        flow_cs_(3 * flows.size(), 0) {
    check_inputs(p, flows, weights);
    REDIST_CHECK(active.empty() || active.size() == flows.size());
    if (!weights.empty()) weight_ = weights;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (active.empty() || active[f]) active_.push_back(static_cast<int>(f));
    }
    if (active_.empty()) return;

    // Number the constraints: senders ascending, receivers ascending, then
    // the backbone; a node without an active flow gets none.
    std::vector<int> sender_c(static_cast<std::size_t>(p.n1), -1);
    std::vector<int> receiver_c(static_cast<std::size_t>(p.n2), -1);
    const auto sender_of = [&](int f) -> int& {
      return sender_c[static_cast<std::size_t>(
          flows[static_cast<std::size_t>(f)].src)];
    };
    const auto receiver_of = [&](int f) -> int& {
      return receiver_c[static_cast<std::size_t>(
          flows[static_cast<std::size_t>(f)].dst)];
    };
    for (const int f : active_) sender_of(f) = receiver_of(f) = 0;
    for (NodeId i = 0; i < p.n1; ++i) {
      int& id = sender_c[static_cast<std::size_t>(i)];
      if (id < 0) continue;
      id = static_cast<int>(cs_.size());
      cs_.push_back(Constraint{p.card_out_bps(i)});
    }
    for (NodeId j = 0; j < p.n2; ++j) {
      int& id = receiver_c[static_cast<std::size_t>(j)];
      if (id < 0) continue;
      id = static_cast<int>(cs_.size());
      cs_.push_back(Constraint{p.card_in_bps(j)});
    }
    const int backbone = static_cast<int>(cs_.size());
    cs_.push_back(Constraint{p.backbone_bps});

    for (const int f : active_) {
      int* c = &flow_cs_[3 * static_cast<std::size_t>(f)];
      c[0] = sender_of(f);
      c[1] = receiver_of(f);
      c[2] = backbone;
      for (int k = 0; k < 3; ++k) ++cs_[static_cast<std::size_t>(c[k])].size;
    }
    std::size_t begin = 0;
    for (Constraint& c : cs_) {
      c.begin = begin;
      begin += c.size;
      c.size = 0;
    }
    members_.resize(begin);
    for (const int f : active_) {
      for (int k = 0; k < 3; ++k) {
        Constraint& c = cs_[static_cast<std::size_t>(
            flow_cs_[3 * static_cast<std::size_t>(f) + k])];
        members_[c.begin + c.size++] = f;
      }
    }
    live_.resize(cs_.size());
    unfrozen_.resize(active_.size());
  }

  /// Active flows, ascending.
  const std::vector<int>& active() const { return active_; }
  /// Flow f's rate as of the last water_fill (0 if it was never active).
  double rate(int f) const { return rate_[static_cast<std::size_t>(f)]; }
  const std::vector<double>& rates() const { return rate_; }

  /// (Weighted) max-min fair rates of the active flows with the backbone at
  /// `backbone_bps`: every unfrozen flow rises proportionally to its weight
  /// until a constraint saturates, which freezes the flows crossing it.
  REDIST_NOALLOC
  void water_fill(double backbone_bps) {
    if (cs_.empty()) return;
    cs_.back().capacity = backbone_bps;
    live_count_ = 0;
    for (std::size_t c = 0; c < cs_.size(); ++c) {
      Constraint& con = cs_[c];
      con.used = 0;
      con.unfrozen = con.size;
      con.reweigh = true;
      // An infinite capacity (the offered-load fill's backbone) can neither
      // lower delta nor saturate (its threshold inf - inf is NaN), so it
      // never goes live.
      if (con.size > 0 && !std::isinf(con.capacity)) {
        live_[live_count_++] = static_cast<int>(c);
      }
    }
    unfrozen_count_ = 0;
    for (const int f : active_) {
      rate_[static_cast<std::size_t>(f)] = 0;
      frozen_[static_cast<std::size_t>(f)] = 0;
      unfrozen_[unfrozen_count_++] = f;
    }

    while (unfrozen_count_ > 0) {
      // Live constraints whose members froze last round (or all of them,
      // in the first round) re-sum their unfrozen weight.
      double delta = std::numeric_limits<double>::infinity();
      for (std::size_t l = 0; l < live_count_; ++l) {
        Constraint& con = cs_[static_cast<std::size_t>(live_[l])];
        if (con.reweigh) {
          double unfrozen_weight = 0;
          for (std::size_t m = con.begin; m < con.begin + con.size; ++m) {
            const auto f = static_cast<std::size_t>(members_[m]);
            if (!frozen_[f]) unfrozen_weight += weight_[f];
          }
          con.unfrozen_weight = unfrozen_weight;
          con.reweigh = false;
        }
        delta = std::min(delta,
                         (con.capacity - con.used) / con.unfrozen_weight);
      }
      REDIST_CHECK(std::isfinite(delta));
      delta = std::max(delta, 0.0);
      for (std::size_t u = 0; u < unfrozen_count_; ++u) {
        const auto f = static_cast<std::size_t>(unfrozen_[u]);
        rate_[f] += delta * weight_[f];
      }
      // Freeze flows in saturated constraints. No rate changes before the
      // next round, so the load summed here is that round's load too.
      bool froze_any = false;
      for (std::size_t l = 0; l < live_count_; ++l) {
        Constraint& con = cs_[static_cast<std::size_t>(live_[l])];
        double used = 0;
        for (std::size_t m = con.begin; m < con.begin + con.size; ++m) {
          used += rate_[static_cast<std::size_t>(members_[m])];
        }
        con.used = used;
        if (used >= con.capacity - kEps * std::max(1.0, con.capacity)) {
          for (std::size_t m = con.begin; m < con.begin + con.size; ++m) {
            const auto f = static_cast<std::size_t>(members_[m]);
            if (frozen_[f]) continue;
            frozen_[f] = 1;
            froze_any = true;
            for (std::size_t k = 3 * f; k < 3 * f + 3; ++k) {
              Constraint& crossed = cs_[static_cast<std::size_t>(flow_cs_[k])];
              --crossed.unfrozen;
              crossed.reweigh = true;
            }
          }
        }
      }
      REDIST_CHECK_MSG(froze_any, "water filling failed to converge");
      std::size_t kept = 0;
      for (std::size_t l = 0; l < live_count_; ++l) {
        if (cs_[static_cast<std::size_t>(live_[l])].unfrozen > 0) {
          live_[kept++] = live_[l];
        }
      }
      live_count_ = kept;
      kept = 0;
      for (std::size_t u = 0; u < unfrozen_count_; ++u) {
        if (!frozen_[static_cast<std::size_t>(unfrozen_[u])]) {
          unfrozen_[kept++] = unfrozen_[u];
        }
      }
      unfrozen_count_ = kept;
    }
  }

  /// Drops every active flow `finished` accepts from the active list and
  /// from its three constraints.
  template <typename Finished>
  void retire(Finished&& finished) {
    std::size_t kept = 0;
    for (const int f : active_) {
      if (!finished(f)) {
        active_[kept++] = f;
        continue;
      }
      for (std::size_t k = 3 * static_cast<std::size_t>(f);
           k < 3 * static_cast<std::size_t>(f) + 3; ++k) {
        Constraint& con = cs_[static_cast<std::size_t>(flow_cs_[k])];
        const auto first =
            members_.begin() + static_cast<std::ptrdiff_t>(con.begin);
        const auto last = first + static_cast<std::ptrdiff_t>(con.size);
        const auto gone = std::find(first, last, f);
        std::move(gone + 1, last, gone);
        --con.size;
      }
    }
    active_.resize(kept);
  }

 private:
  struct Constraint {
    double capacity = 0;
    double used = 0;             // load as of the last freeze pass
    double unfrozen_weight = 0;  // summed weight of the unfrozen members
    std::size_t begin = 0;       // members: members_[begin, begin + size)
    std::size_t size = 0;        // active members
    std::size_t unfrozen = 0;    // unfrozen members
    bool reweigh = false;        // unfrozen_weight is stale
  };

  std::vector<Constraint> cs_;
  std::vector<int> members_;    // each constraint's active flows, ascending
  std::vector<double> rate_;    // per flow
  std::vector<double> weight_;  // per flow fairness weight
  std::vector<char> frozen_;    // per flow
  std::vector<int> flow_cs_;    // per flow: sender, receiver, backbone
  std::vector<int> active_;     // active flows, ascending
  // Per-fill work lists, sized at construction.
  std::vector<int> live_;      // constraints with an unfrozen member
  std::vector<int> unfrozen_;  // unfrozen flows
  std::size_t live_count_ = 0;
  std::size_t unfrozen_count_ = 0;
};

}  // namespace

std::vector<double> max_min_rates(const Platform& p,
                                  const std::vector<Flow>& flows,
                                  const std::vector<char>& active,
                                  double backbone_bps_override,
                                  const std::vector<double>& weights) {
  FluidNetwork net(p, flows, active, weights);
  net.water_fill(backbone_bps_override > 0 ? backbone_bps_override
                                           : p.backbone_bps);
  return net.rates();
}

FluidResult simulate_fluid(const Platform& p, const std::vector<Flow>& flows,
                           const FluidOptions& options) {
  FluidResult result;
  result.completion_seconds.assign(flows.size(), 0.0);
  std::vector<double> remaining(flows.size());
  std::vector<char> active(flows.size(), 1);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    REDIST_CHECK_MSG(flows[f].bytes >= 0, "negative flow size");
    remaining[f] = flows[f].bytes;
    active[f] = remaining[f] > 0 ? 1 : 0;
  }

  Rng rng(options.seed);
  // Per-flow fairness weights for the whole run (TCP unfairness model).
  std::vector<double> weights;
  if (options.unfairness_stddev > 0) {
    weights.resize(flows.size());
    for (double& w : weights) {
      w = std::exp(rng.normal(0.0, options.unfairness_stddev));
    }
  }
  FluidNetwork net(p, flows, active, weights);

  double now = 0.0;
  while (!net.active().empty()) {
    // Congestion penalty on the backbone while it is oversubscribed; the
    // offered load is the card-limited fill's total with an infinite
    // backbone.
    double backbone = p.backbone_bps;
    if (options.congestion_alpha > 0) {
      net.water_fill(std::numeric_limits<double>::infinity());
      double offered = 0;
      for (const int f : net.active()) offered += net.rate(f);
      if (offered > p.backbone_bps * (1 + kEps)) {
        const double over = std::log2(offered / p.backbone_bps);
        backbone = p.backbone_bps / (1.0 + options.congestion_alpha * over);
      }
    }
    net.water_fill(backbone);
    ++result.rate_recomputations;

    double dt = std::numeric_limits<double>::infinity();
    for (const int f : net.active()) {
      REDIST_CHECK_MSG(net.rate(f) > 0, "active flow got zero rate");
      const double left = remaining[static_cast<std::size_t>(f)];
      dt = std::min(dt, left / net.rate(f));
    }
    REDIST_CHECK(std::isfinite(dt));
    if (options.jitter_stddev > 0) {
      dt *= std::exp(rng.normal(0.0, options.jitter_stddev));
    }
    now += dt;
    for (const int f : net.active()) {
      const auto fi = static_cast<std::size_t>(f);
      remaining[fi] -= net.rate(f) * dt;
      if (remaining[fi] <= kEps * std::max(1.0, flows[fi].bytes)) {
        remaining[fi] = 0;
        result.completion_seconds[fi] = now;
      }
    }
    net.retire(
        [&](int f) { return remaining[static_cast<std::size_t>(f)] == 0; });
  }
  result.makespan_seconds = now;
  return result;
}

}  // namespace redist
