// Analyze fixture (never compiled): must fire telemetry-guard twice.
void bump() {
  obs::metrics()->counter("x").add();
  obs::journal()->record(obs::JournalEventKind::kRetry);
}
