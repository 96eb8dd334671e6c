#include "kpbs/schedule_validator.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "common/error.hpp"
#include "common/rational.hpp"

namespace redist {

const char* invariant_kind_name(InvariantKind kind) {
  switch (kind) {
    case InvariantKind::kMatching:
      return "matching";
    case InvariantKind::kStepWidth:
      return "step-width";
    case InvariantKind::kCoverage:
      return "coverage";
    case InvariantKind::kMakespan:
      return "makespan";
    case InvariantKind::kApproximation:
      return "approximation";
    case InvariantKind::kGraphConsistency:
      return "graph-consistency";
    case InvariantKind::kRegularity:
      return "regularity";
  }
  return "?";
}

void ValidationReport::merge(const ValidationReport& other) {
  violations_.insert(violations_.end(), other.violations_.begin(),
                     other.violations_.end());
}

bool ValidationReport::has(InvariantKind kind) const {
  return std::any_of(violations_.begin(), violations_.end(),
                     [kind](const Violation& v) { return v.kind == kind; });
}

std::string ValidationReport::to_string() const {
  if (ok()) return "ok";
  std::ostringstream os;
  for (std::size_t i = 0; i < violations_.size(); ++i) {
    if (i > 0) os << '\n';
    os << '[' << invariant_kind_name(violations_[i].kind) << "] "
       << violations_[i].message;
  }
  return os.str();
}

void ValidationReport::throw_if_failed(const std::string& context) const {
  if (ok()) return;
  throw Error(context + ": " + to_string());
}

namespace {

// A (sender, receiver) pair packed into one key whose unsigned order is the
// signed lexicographic order of the pair, so out-of-range ids sort too.
std::uint64_t pair_key(NodeId left, NodeId right) {
  const auto flip = [](NodeId v) {
    return static_cast<std::uint32_t>(v) ^ 0x80000000u;
  };
  return (std::uint64_t{flip(left)} << 32) | flip(right);
}

NodeId key_left(std::uint64_t key) {
  return static_cast<NodeId>(static_cast<std::uint32_t>(key >> 32) ^
                             0x80000000u);
}

NodeId key_right(std::uint64_t key) {
  return static_cast<NodeId>(static_cast<std::uint32_t>(key) ^ 0x80000000u);
}

struct PairAmount {
  std::uint64_t key;
  Weight amount;
};

// Sorts by pair and folds each pair's amounts into one entry.
void sort_and_fold(std::vector<PairAmount>& v) {
  std::sort(v.begin(), v.end(), [](const PairAmount& a, const PairAmount& b) {
    return a.key < b.key;
  });
  std::size_t out = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (out > 0 && v[out - 1].key == v[i].key) {
      v[out - 1].amount += v[i].amount;
    } else {
      v[out++] = v[i];
    }
  }
  v.resize(out);
}

}  // namespace

ScheduleValidator::ScheduleValidator(ScheduleValidatorOptions options)
    : options_(options) {
  REDIST_CHECK_MSG(options_.k >= 1, "validator needs k >= 1");
  REDIST_CHECK_MSG(options_.beta >= 0, "negative beta");
}

ValidationReport ScheduleValidator::validate(const BipartiteGraph& demand,
                                             const Schedule& schedule) const {
  if (!options_.check_approximation_bound) {
    return audit(demand, schedule, nullptr);
  }
  const LowerBound lb = kpbs_lower_bound(demand, options_.k, options_.beta);
  return audit(demand, schedule, &lb);
}

ValidationReport ScheduleValidator::validate(
    const BipartiteGraph& demand, const Schedule& schedule,
    const LowerBound& lower_bound) const {
  return audit(demand, schedule, &lower_bound);
}

ValidationReport ScheduleValidator::audit(const BipartiteGraph& demand,
                                          const Schedule& schedule,
                                          const LowerBound* lower_bound) const {
  ValidationReport report;
  const std::vector<Step>& steps = schedule.steps();

  // (1)+(2) in one pass. A node's stamp is the 1-based index of the last
  // step that used it, so nothing is reset between steps. The same pass
  // collects the delivered pieces and recomputes the makespan.
  std::vector<std::size_t> sender_stamp(
      static_cast<std::size_t>(demand.left_count()), 0);
  std::vector<std::size_t> receiver_stamp(
      static_cast<std::size_t>(demand.right_count()), 0);
  std::size_t comm_count = 0;
  for (const Step& step : steps) comm_count += step.comms.size();
  std::vector<PairAmount> delivered;
  delivered.reserve(comm_count);
  Weight recomputed = 0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Step& step = steps[i];
    const std::size_t stamp = i + 1;
    if (static_cast<int>(step.comms.size()) > options_.k) {
      std::ostringstream os;
      os << "step " << i << " has " << step.comms.size()
         << " communications > k=" << options_.k;
      report.add(InvariantKind::kStepWidth, os.str());
    }
    Weight longest = 0;
    for (const Communication& c : step.comms) {
      longest = std::max(longest, c.amount);
      delivered.push_back({pair_key(c.sender, c.receiver), c.amount});
      if (c.sender < 0 || c.sender >= demand.left_count() || c.receiver < 0 ||
          c.receiver >= demand.right_count()) {
        std::ostringstream os;
        os << "step " << i << ": endpoints out of range (" << c.sender << "->"
           << c.receiver << ")";
        report.add(InvariantKind::kMatching, os.str());
        continue;  // cannot index the stamp arrays with these ids
      }
      if (c.amount <= 0) {
        std::ostringstream os;
        os << "step " << i << ": non-positive amount " << c.amount << " on "
           << c.sender << "->" << c.receiver;
        report.add(InvariantKind::kMatching, os.str());
      }
      std::size_t& sender = sender_stamp[static_cast<std::size_t>(c.sender)];
      if (sender == stamp) {
        std::ostringstream os;
        os << "step " << i << ": sender " << c.sender
           << " appears twice (1-port violation)";
        report.add(InvariantKind::kMatching, os.str());
      }
      std::size_t& receiver =
          receiver_stamp[static_cast<std::size_t>(c.receiver)];
      if (receiver == stamp) {
        std::ostringstream os;
        os << "step " << i << ": receiver " << c.receiver
           << " appears twice (1-port violation)";
        report.add(InvariantKind::kMatching, os.str());
      }
      sender = stamp;
      receiver = stamp;
    }
    REDIST_CHECK_MSG(!__builtin_add_overflow(recomputed, longest,
                                             &recomputed) &&
                         !__builtin_add_overflow(recomputed, options_.beta,
                                                 &recomputed),
                     "schedule cost overflows at step " << i);
  }

  // (3) Coverage: fold the demanded and the delivered amounts per pair,
  // then walk both sorted lists together. Mismatched demanded pairs are
  // reported in pair order, then pairs delivered without any demand.
  std::vector<PairAmount> required;
  required.reserve(static_cast<std::size_t>(demand.alive_edge_count()));
  for (const Edge& edge : demand.edges()) {
    if (edge.weight > 0) {
      required.push_back({pair_key(edge.left, edge.right), edge.weight});
    }
  }
  sort_and_fold(required);
  sort_and_fold(delivered);
  std::vector<PairAmount> undemanded;
  std::size_t d = 0;
  for (const PairAmount& want : required) {
    while (d < delivered.size() && delivered[d].key < want.key) {
      undemanded.push_back(delivered[d++]);
    }
    Weight got = 0;
    if (d < delivered.size() && delivered[d].key == want.key) {
      got = delivered[d++].amount;
    }
    if (got != want.amount) {
      std::ostringstream os;
      os << "pair " << key_left(want.key) << "->" << key_right(want.key)
         << " transferred " << got << " of demanded " << want.amount
         << (got < want.amount ? " (under-transfer)" : " (over-transfer)");
      report.add(InvariantKind::kCoverage, os.str());
    }
  }
  undemanded.insert(undemanded.end(),
                    delivered.begin() + static_cast<std::ptrdiff_t>(d),
                    delivered.end());
  for (const PairAmount& extra : undemanded) {
    std::ostringstream os;
    os << "pair " << key_left(extra.key) << "->" << key_right(extra.key)
       << " transferred " << extra.amount << " but has no demand";
    report.add(InvariantKind::kCoverage, os.str());
  }

  // (4) The makespan, recomputed from the raw communications instead of
  // trusting Step::duration()/Schedule::cost().
  const Weight cost = schedule.cost(options_.beta);
  if (cost != recomputed) {
    std::ostringstream os;
    os << "Schedule::cost reports " << cost
       << " but sum_i(beta + W(M_i)) = " << recomputed;
    report.add(InvariantKind::kMakespan, os.str());
  }
  if (options_.reported_makespan >= 0 &&
      options_.reported_makespan != recomputed) {
    std::ostringstream os;
    os << "reported makespan " << options_.reported_makespan
       << " != sum_i(beta + W(M_i)) = " << recomputed;
    report.add(InvariantKind::kMakespan, os.str());
  }

  // (5) cost <= 2 * LB, compared as cost / 2 <= LB: doubling the bound
  // would overflow once LB exceeds INT64_MAX / 2.
  if (lower_bound != nullptr) {
    const Rational lb = lower_bound->value();
    if (Rational(cost, 2) > lb) {
      std::ostringstream os;
      os << "cost " << cost << " exceeds 2x lower bound = ";
      if (lb.num() <= INT64_MAX / 2) {
        os << (Rational(2) * lb).to_string();
      } else {
        os << "2*" << lb.to_string();
      }
      os << " (lb = " << lb.to_string() << ")";
      report.add(InvariantKind::kApproximation, os.str());
    }
  }
  return report;
}

}  // namespace redist
