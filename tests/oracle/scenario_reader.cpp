#include "oracle/scenario_reader.hpp"

#include <sstream>

#include "common/error.hpp"

namespace redist::oracle {

namespace {

ScenarioKind kind_named(const std::string& name) {
  for (const ScenarioKind kind :
       {ScenarioKind::kUniform, ScenarioKind::kHeterogeneous,
        ScenarioKind::kAsymmetric, ScenarioKind::kHotspot,
        ScenarioKind::kSparseGiant, ScenarioKind::kFaultStorm}) {
    if (name == scenario_kind_name(kind)) return kind;
  }
  throw Error("scenario text: unknown kind: " + name);
}

}  // namespace

ScenarioSpec read_scenario_text(const std::string& text) {
  std::istringstream is(text);
  ScenarioSpec spec;
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "scenario") {
      ls >> spec.name;
    } else if (key == "kind") {
      std::string name;
      ls >> name;
      spec.kind = kind_named(name);
    } else if (key == "seed") {
      ls >> spec.seed;
    } else if (key == "nodes") {
      ls >> spec.senders >> spec.receivers;
    } else if (key == "edges") {
      ls >> spec.edges;
    } else if (key == "bytes") {
      ls >> spec.min_bytes >> spec.max_bytes >> spec.bytes_per_unit;
    } else if (key == "solver") {
      ls >> spec.k >> spec.beta;
    } else if (key == "hot_share") {
      ls >> spec.hot_share;
    } else if (key == "het_spread") {
      ls >> spec.het_spread;
    } else if (key == "storm") {
      ls >> spec.storm_intensity;
    } else {
      throw Error("scenario text: unknown key: " + key);
    }
    std::string trailing;
    if (ls.fail() || ls >> trailing) {
      throw Error("scenario text: malformed line: " + line);
    }
  }
  return spec;
}

}  // namespace redist::oracle
