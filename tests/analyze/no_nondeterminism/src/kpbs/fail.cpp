// Analyze fixture (never compiled): must fire no-nondeterminism twice.
int pick_edge(int n) {
  std::mt19937 gen(42);
  (void)gen;
  return static_cast<int>(rand()) % n;
}
