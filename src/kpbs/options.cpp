#include "kpbs/options.hpp"

#include "common/error.hpp"

namespace redist {

std::string algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kGGP:
      return "GGP";
    case Algorithm::kOGGP:
      return "OGGP";
  }
  return "?";
}

Algorithm parse_algorithm(const std::string& name) {
  if (name == "ggp" || name == "GGP") return Algorithm::kGGP;
  if (name == "oggp" || name == "OGGP") return Algorithm::kOGGP;
  throw Error("unknown algorithm '" + name + "' (expected ggp or oggp)");
}

SolverOptions solver_options_from_flags(Flags& flags,
                                        const SolverOptions& defaults) {
  SolverOptions options = defaults;
  options.k = static_cast<int>(flags.get_int("k", defaults.k));
  options.beta = flags.get_int("beta", defaults.beta);
  options.algorithm = parse_algorithm(
      flags.get_string("algo", algorithm_name(defaults.algorithm)));
  return options;
}

}  // namespace redist
