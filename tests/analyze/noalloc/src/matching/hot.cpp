// Noalloc fixture: nothing reachable from a REDIST_NOALLOC function may
// allocate — no new/malloc, no container growth — unless it crosses a
// REDIST_ALLOW_ALLOC boundary. Never compiled.
#include <vector>

namespace redist {

REDIST_NOALLOC
int fixture_direct_new(int n) {
  // MUST FIRE: bare new in a noalloc function.
  int* scratch = new int[4];
  return scratch[n % 4];
}

void fixture_grow(std::vector<int>& out, int x) { out.push_back(x); }

REDIST_NOALLOC
void fixture_probe(std::vector<int>& out, int x) {
  // MUST FIRE: the callee grows a container.
  fixture_grow(out, x);
}

REDIST_NOALLOC
int fixture_clean(const std::vector<int>& xs, int i) {
  // NEAR MISS: index arithmetic only.
  return xs[static_cast<unsigned>(i) % xs.size()];
}

REDIST_ALLOW_ALLOC("fixture exercises the audited-boundary escape")
void fixture_buffered(std::vector<int>& out, int x) { out.push_back(x); }

REDIST_NOALLOC
void fixture_scan_all(std::vector<int>& out, int x) {
  // NEAR MISS: the callee is an audited REDIST_ALLOW_ALLOC boundary.
  fixture_buffered(out, x);
}

// A project function that shares its name with a C library call.
void recv(std::vector<int>& out, int x) { out.push_back(x); }

REDIST_NOALLOC
long fixture_syscall(int fd, char* buf) {
  // NEAR MISS: `::recv` is the C library's, not the project's recv above.
  return ::recv(fd, buf, 1, 0);
}

REDIST_NOALLOC
void fixture_hushed(std::vector<int>& out, int x) {
  // redist-analyze: allow(noalloc) fixture exercises suppression
  out.push_back(x);
}

}  // namespace redist
