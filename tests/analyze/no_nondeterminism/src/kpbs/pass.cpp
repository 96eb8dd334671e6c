// Analyze fixture (never compiled): near miss for no-nondeterminism.
// "operand" contains "rand" and the string names a banned engine, but
// only exact identifier tokens may fire.
struct Rng {
  unsigned long long next();
};

unsigned long long pick(Rng& rng, int operand_count) {
  const char* label = "mt19937 disallowed here";
  (void)label;
  int operands = operand_count;
  return rng.next() % static_cast<unsigned long long>(operands);
}
