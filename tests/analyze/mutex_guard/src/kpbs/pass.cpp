// Analyze fixture (never compiled): near miss for mutex-guard — every member
// of the Mutex-holding class is annotated, const, or atomic, and a class
// without a Mutex owes no annotations at all.
class Annotated {
 public:
  void add();

 private:
  redist::Mutex mu_;
  long total_ REDIST_GUARDED_BY(mu_) = 0;
  const int capacity_ = 16;
  std::atomic<int> hits_{0};
};

struct PlainData {
  int a = 0;
  int b = 0;
};
