// Analyze fixture (never compiled): must fire wallclock twice.
long stamp_ns() {
  auto now = std::chrono::system_clock::now();
  (void)now;
  return time(nullptr);
}
