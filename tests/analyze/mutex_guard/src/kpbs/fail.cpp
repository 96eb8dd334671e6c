// Analyze fixture (never compiled): must fire mutex-guard twice — a raw
// std::mutex member, and an unannotated member next to a redist::Mutex.
struct RawLocked {
  std::mutex mu;
  int value = 0;
};

class Counter {
 public:
  void add();

 private:
  redist::Mutex mu_;
  long total_ = 0;
};
