// Analyze fixture (never compiled): near misses for wallclock — the repo
// Stopwatch, 'time' embedded in a longer identifier, and member calls
// named time() are all allowed.
double wait_seconds(const redist::Stopwatch& watch, Timer& timer) {
  double spent = watch.elapsed_seconds();
  long deadline_time = timer.time();
  long monotonic = timer->time();
  return spent + static_cast<double>(deadline_time + monotonic);
}
