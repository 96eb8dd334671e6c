// Analyze fixture (never compiled): near miss for telemetry-guard — the sink
// is bound to a local and null-checked before any dereference.
void bump() {
  obs::MetricsRegistry* const metrics = obs::metrics();
  if (metrics != nullptr) metrics->counter("x").add();
  obs::TraceSession* const trace = obs::trace();
  if (trace != nullptr) trace->begin("span");
}
