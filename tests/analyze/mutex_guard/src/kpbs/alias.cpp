// Analyze fixture (never compiled): must fire mutex-guard three times — raw
// sync members declared through aliases made in this file, by `using`, by
// `typedef` and by an alias of an alias.
using RawLock = std::mutex;
typedef std::condition_variable RawSignal;
using RawLockToo = RawLock;

class Pump {
 public:
  void run();

 private:
  RawLock mu_;
  RawSignal ready_;
  RawLockToo other_mu_;
};
