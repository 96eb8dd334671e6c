#include "kpbs/det.hpp"

#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <map>
#include <random>
#include <unordered_map>
#include <vector>

namespace redist {
namespace {

// MUST FIRE: reached from deterministic_entry, uses the C RNG.
int noisy_helper() { return rand(); }

// MUST FIRE: reached from deterministic_entry, reads the calendar clock.
int stamp_helper() {
  std::time_t now = 0;
  std::tm parts{};
  localtime_r(&now, &parts);
  return parts.tm_hour;
}

// MUST FIRE: reached from deterministic_entry, a standard engine instead of
// the seeded redist::Rng.
int engine_helper() { return static_cast<int>(std::knuth_b(1)()); }

int quiet_helper() { return 7; }

// NEAR MISS: the annotation is a traversal boundary — the RNG behind it is
// the author's declared responsibility, not a finding.
REDIST_ALLOW_NONDET("fixture: sizing only, result is order-independent")
int pool_helper() { return rand(); }

}  // namespace

int deterministic_entry(int n) {
  return n + noisy_helper() + stamp_helper() + engine_helper();
}

int deterministic_guarded(int n) {
  return n + quiet_helper() + pool_helper();
}

int iteration_order() {
  std::unordered_map<int, int> counts;
  std::map<int, int> ordered;
  int total = 0;
  // MUST FIRE: bucket visit order is implementation-defined.
  for (const auto& entry : counts) total += entry.second;
  // NEAR MISS: std::map iterates in key order.
  for (const auto& entry : ordered) total += entry.second;
  return total;
}

void order_weights() {
  std::vector<double> weights;
  std::vector<int> ids;
  // MUST FIRE: ties between equal doubles land in unspecified order.
  std::sort(weights.begin(), weights.end(),
            [](double a, double b) { return a < b; });
  // NEAR MISS: stable_sort keeps ties in input order.
  std::stable_sort(weights.begin(), weights.end(),
                   [](double a, double b) { return a < b; });
  // NEAR MISS: integer keys have no ties ambiguity.
  std::sort(ids.begin(), ids.end(), [](int a, int b) { return a < b; });
}

// NEAR MISS: nondeterministic, but no contract claims otherwise and no
// annotated function reaches it.
int unannotated_helper() { return rand(); }

}  // namespace redist
