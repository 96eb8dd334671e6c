#include "kpbs/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "kpbs/schedule_validator.hpp"

namespace redist {

Weight Step::duration() const {
  Weight d = 0;
  for (const Communication& c : comms) d = std::max(d, c.amount);
  return d;
}

Weight Schedule::total_transmission() const {
  Weight sum = 0;
  for (const Step& s : steps_) sum += s.duration();
  return sum;
}

Weight Schedule::cost(Weight beta) const {
  REDIST_CHECK_MSG(beta >= 0, "negative beta");
  Weight cost = 0;
  for (const Step& s : steps_) {
    REDIST_CHECK_MSG(!__builtin_add_overflow(cost, s.duration(), &cost) &&
                         !__builtin_add_overflow(cost, beta, &cost),
                     "schedule cost overflows");
  }
  return cost;
}

Weight Schedule::total_amount() const {
  Weight sum = 0;
  for (const Step& s : steps_) {
    for (const Communication& c : s.comms) sum += c.amount;
  }
  return sum;
}

std::string Schedule::to_string() const {
  std::ostringstream os;
  os << "schedule with " << steps_.size() << " step(s)\n";
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const Step& s = steps_[i];
    os << "  step " << i << " (duration " << s.duration() << "): ";
    for (std::size_t c = 0; c < s.comms.size(); ++c) {
      const Communication& comm = s.comms[c];
      os << (c ? ", " : "") << comm.sender << "->" << comm.receiver << ":"
         << comm.amount;
    }
    os << '\n';
  }
  return os.str();
}

namespace {

__extension__ typedef __int128 int128;

// floor(units * unit) without rounding: unit = m * 2^e with an integer
// m < 2^53, so the product is an integer shifted by e. Needs unit >= 1;
// saturates at the largest Bytes.
Bytes floor_bytes(Weight units, double unit) {
  int exponent = 0;
  const double fraction = std::frexp(unit, &exponent);
  const int128 product =
      int128{units} * static_cast<std::int64_t>(std::ldexp(fraction, 53));
  const int shift = exponent - 53;
  if (shift < 0) return static_cast<Bytes>(product >> -shift);
  constexpr Bytes kMax = std::numeric_limits<Bytes>::max();
  return shift >= 63 || product > (int128{kMax} >> shift)
             ? kMax
             : static_cast<Bytes>(product << shift);
}

}  // namespace

BytePlan plan_bytes(const TrafficMatrix& traffic, const Schedule& schedule,
                    const std::function<double(NodeId, NodeId)>& unit_bytes) {
  struct Pair {
    Bytes bytes = 0;
    double unit = 0;
    Weight units = 0;  ///< scheduled in total
    Weight done = 0;   ///< laid into pieces so far
    Bytes sent = 0;
  };
  std::unordered_map<std::int64_t, Pair> pairs;
  const auto pair_of = [&](const Communication& c) -> Pair& {
    return pairs[static_cast<std::int64_t>(c.sender) * traffic.receivers() +
                 c.receiver];
  };
  const std::vector<Step>& steps = schedule.steps();
  // The last step each node (senders, then receivers) took part in.
  std::vector<std::size_t> busy(
      static_cast<std::size_t>(traffic.senders() + traffic.receivers()),
      std::numeric_limits<std::size_t>::max());
  for (std::size_t s = 0; s < steps.size(); ++s) {
    for (const Communication& c : steps[s].comms) {
      const Bytes bytes = traffic.at(c.sender, c.receiver);
      REDIST_CHECK_MSG(bytes > 0 && c.amount > 0,
                       "step " << s << " sends " << c.amount << " unit(s) on "
                               << c.sender << "->" << c.receiver
                               << ", which has " << bytes << " bytes");
      const auto sender = static_cast<std::size_t>(c.sender);
      const auto receiver =
          static_cast<std::size_t>(traffic.senders() + c.receiver);
      const bool sender_free = std::exchange(busy[sender], s) != s;
      const bool receiver_free = std::exchange(busy[receiver], s) != s;
      REDIST_CHECK_MSG(sender_free && receiver_free,
                       "1-port violation in step " << s << " at "
                                                   << c.sender << "->"
                                                   << c.receiver);
      Pair& pair = pair_of(c);
      if (pair.bytes == 0) {
        pair.bytes = bytes;
        pair.unit = unit_bytes(c.sender, c.receiver);
        REDIST_CHECK_MSG(pair.unit >= 1, "a time unit of "
                                             << c.sender << "->" << c.receiver
                                             << " is worth " << pair.unit
                                             << " bytes, under one byte");
      }
      REDIST_CHECK_MSG(
          !__builtin_add_overflow(pair.units, c.amount, &pair.units),
          "units of " << c.sender << "->" << c.receiver << " overflow");
    }
  }
  REDIST_CHECK_MSG(static_cast<int>(pairs.size()) == traffic.nonzero_count(),
                   "schedule leaves a pair with demand unscheduled");

  BytePlan plan(steps.size());
  for (std::size_t s = 0; s < steps.size(); ++s) {
    for (const Communication& c : steps[s].comms) {
      Pair& pair = pair_of(c);
      REDIST_CHECK_MSG(pair.sent < pair.bytes,
                       "step " << s << " sends on " << c.sender << "->"
                               << c.receiver << " with no demand left");
      pair.done += c.amount;
      Bytes upto = pair.bytes;  // the last communication carries the rest
      if (pair.done < pair.units) {
        upto = std::min(upto, floor_bytes(pair.done, pair.unit));
      } else {
        REDIST_CHECK_MSG(pair.units >= time_units(pair.bytes, pair.unit),
                         pair.units << " unit(s) fall short of the "
                                    << pair.bytes << " bytes of "
                                    << c.sender << "->" << c.receiver);
      }
      plan[s].push_back(BytePiece{c.sender, c.receiver, upto - pair.sent});
      pair.sent = upto;
    }
  }
  return plan;
}

BytePlan plan_bytes(const TrafficMatrix& traffic, const Schedule& schedule,
                    double bytes_per_time_unit) {
  return plan_bytes(traffic, schedule,
                    [bytes_per_time_unit](NodeId, NodeId) {
                      return bytes_per_time_unit;
                    });
}

bool schedule_is_valid(const BipartiteGraph& demand, const Schedule& s, int k,
                       std::string* why) {
  if (k < 1) {
    if (why != nullptr) *why = "k must be >= 1";
    return false;
  }
  ScheduleValidatorOptions options;
  options.k = k;
  const ValidationReport report =
      ScheduleValidator(options).validate(demand, s);
  if (report.ok()) return true;
  if (why != nullptr) *why = report.violations().front().message;
  return false;
}

void validate_schedule(const BipartiteGraph& demand, const Schedule& s,
                       int k) {
  std::string why;
  REDIST_CHECK_MSG(schedule_is_valid(demand, s, k, &why),
                   "invalid schedule: " << why);
}

}  // namespace redist
