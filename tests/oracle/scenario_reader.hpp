// Reads the text scenario_to_string (workload/scenario.hpp) writes, so the
// scenario suites can check that a spec_text names its spec exactly. The
// library itself never reads this format back.
#pragma once

#include <string>

#include "workload/scenario.hpp"

namespace redist::oracle {

/// Parses one field per line in scenario_to_string's layout; throws
/// redist::Error on an unknown key or kind, or a malformed line. Does not
/// validate the spec.
ScenarioSpec read_scenario_text(const std::string& text);

}  // namespace redist::oracle
