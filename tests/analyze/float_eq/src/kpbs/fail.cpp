// Analyze fixture (never compiled): must fire float-eq.
bool converged(double ratio, double x) {
  if (x == 1.0) return true;
  return ratio != x;
}
