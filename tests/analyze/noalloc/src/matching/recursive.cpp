// Noalloc fixture: a function reachable from a REDIST_NOALLOC root must not
// call itself — its stack grows with the input, an allocation the sink
// table cannot see. Never compiled.
#include <vector>

namespace redist {

// MUST FIRE: reached from fixture_search, calls itself.
bool fixture_descend(const std::vector<int>& next, int at) {
  return at < 0 || fixture_descend(next, next[static_cast<unsigned>(at)]);
}

REDIST_NOALLOC
bool fixture_search(const std::vector<int>& next, int from) {
  return fixture_descend(next, from);
}

REDIST_NOALLOC
int fixture_countdown(int n) {
  // MUST FIRE: the root itself recurses.
  return n == 0 ? 0 : 1 + fixture_countdown(n - 1);
}

REDIST_NOALLOC
bool fixture_iterative(const std::vector<int>& next, int at) {
  // NEAR MISS: the same walk as a loop.
  while (at >= 0) at = next[static_cast<unsigned>(at)];
  return true;
}

// NEAR MISS: recurses, but no REDIST_NOALLOC root reaches it.
int fixture_unreached(int n) { return n == 0 ? 0 : fixture_unreached(n - 1); }

}  // namespace redist
