// Analyze fixture (never compiled): allow() directives neutralize findings
// on the same line and on the line directly below the comment.
// redist-analyze: allow(wallclock) deliberate wall-clock read in fixture
long stamp() { return time(nullptr); }

long stamp_again() {
  return time(nullptr);  // redist-analyze: allow(wallclock) same-line allow
}
