#include "kpbs/schedule.hpp"

#include <algorithm>
#include <sstream>

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
  return total_transmission() +
         beta * static_cast<Weight>(steps_.size());
}

Weight Schedule::total_amount() const {
  Weight sum = 0;
  for (const Step& s : steps_) {
    for (const Communication& c : s.comms) sum += c.amount;
  }
  return sum;
}

std::size_t Schedule::max_step_width() const {
  std::size_t w = 0;
  for (const Step& s : steps_) w = std::max(w, s.comms.size());
  return w;
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
