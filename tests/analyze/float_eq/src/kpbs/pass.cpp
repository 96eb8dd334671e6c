// Analyze fixture (never compiled): near misses for float-eq — pointer null
// checks, tolerance comparison, operator== declaration, integer equality.
struct Ratio {
  bool operator==(const Ratio& other) const;
};

bool near_one(double ratio, const double* maybe, int count) {
  if (maybe == nullptr) return false;
  if (count == 0) return false;
  return ratio > 0.99 && ratio < 1.01;
}
