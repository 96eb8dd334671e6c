// Introspection endpoints: the rendered bodies of healthz / statusz /
// metricsz / journalz against given sinks, the daemon serving them over its
// rpc port where an idle client can never wedge a single-threaded pool,
// and running the full observability stack (metrics + journal + served
// introspection) changes no schedule byte.
#include "obs/introspect.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "kpbs/solver.hpp"
#include "net/client_session.hpp"
#include "net/socket.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "service/scheduler_service.hpp"
#include "workload/random_graphs.hpp"

namespace redist::obs {
namespace {

std::string render(std::string_view target, const MetricsRegistry* metrics,
                   const Journal* journal) {
  return render_introspection(target, metrics, journal, /*uptime_ms=*/1.5,
                              /*requests_served=*/7);
}

TEST(Introspect, StatuszCountsSolvesAndPoolDepth) {
  MetricsRegistry registry;
  registry.gauge("runtime.pool.queue_depth").set(3);
  Journal journal(256);
  {
    const SolveIdScope scope(11);
    journal.record(JournalEventKind::kSolveBegin, 2, 2);
    journal.record(JournalEventKind::kSolveEnd, 1, 4, 1.0);
    journal.record(JournalEventKind::kSolveBegin, 2, 2);  // still in flight
  }

  const std::string body = render("statusz", &registry, &journal);
  EXPECT_NE(body.find("\"uptime_ms\":1.5"), std::string::npos) << body;
  EXPECT_NE(body.find("\"requests_served\":7"), std::string::npos);
  EXPECT_NE(body.find("\"solves_begun\":2"), std::string::npos);
  EXPECT_NE(body.find("\"solves_finished\":1"), std::string::npos);
  EXPECT_NE(body.find("\"solves_in_flight\":1"), std::string::npos);
  EXPECT_NE(body.find("\"pool_queue_depth\":3"), std::string::npos);
  EXPECT_NE(body.find("\"recorded\":3"), std::string::npos);
  EXPECT_NE(body.find("\"cache\":null"), std::string::npos);

  const std::string health = render("healthz", nullptr, nullptr);
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.find("\"uptime_ms\":1.5"), std::string::npos);
}

TEST(Introspect, MetricszServesPrometheusExposition) {
  MetricsRegistry registry;
  registry.counter("kpbs.solve.count").add(5);

  const std::string body = render("metricsz", &registry, nullptr);
  EXPECT_NE(body.find("# TYPE redist_kpbs_solve_count counter"),
            std::string::npos);
  EXPECT_NE(body.find("redist_kpbs_solve_count 5"), std::string::npos);
}

TEST(Introspect, JournalzHonorsLastParameter) {
  Journal journal(256);
  for (int i = 0; i < 10; ++i) {
    journal.record(JournalEventKind::kPeelStep, i);
  }

  const std::string body = render("journalz?last=3", nullptr, &journal);
  EXPECT_NE(body.find("\"schema\":\"redist.journal.v1\""), std::string::npos);
  EXPECT_NE(body.find("\"events\":3"), std::string::npos);
  EXPECT_NE(body.find("\"seq\":9"), std::string::npos);
  EXPECT_EQ(body.find("\"seq\":6"), std::string::npos);

  // No count, a zero count and a count past what the journal retains all
  // mean every retained event. 2^64 + 1 saturates instead of wrapping to 1.
  for (const char* target :
       {"journalz", "journalz?last=0", "journalz?last=11",
        "journalz?last=18446744073709551617"}) {
    EXPECT_NE(render(target, nullptr, &journal).find("\"events\":10"),
              std::string::npos)
        << target;
  }
}

TEST(Introspect, RespondCoversErrorAndUninstalledSurfaces) {
  try {
    (void)render("nope", nullptr, nullptr);
    FAIL() << "an unknown endpoint must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("healthz"), std::string::npos);
  }

  EXPECT_NE(render("healthz", nullptr, nullptr).find("\"status\":\"ok\""),
            std::string::npos);
  EXPECT_NE(render("metricsz", nullptr, nullptr).find("no metrics registry"),
            std::string::npos);
  EXPECT_NE(render("journalz", nullptr, nullptr).find("no journal installed"),
            std::string::npos);

  // A `last` value that is not a decimal count is a malformed query.
  for (const char* target :
       {"journalz?last=banana", "journalz?last=", "journalz?last=-1"}) {
    EXPECT_THROW((void)render(target, nullptr, nullptr), Error) << target;
  }

  const std::string statusz = render("statusz", nullptr, nullptr);
  EXPECT_NE(statusz.find("\"journal\":null"), std::string::npos);
  EXPECT_NE(statusz.find("\"pool_queue_depth\":null"), std::string::npos);
  EXPECT_NE(statusz.find("\"cache\":null"), std::string::npos);
}

// Deadline-aware I/O: a client that connects and never sends Hello is
// dropped by the per-connection idle deadline instead of wedging the
// daemon's only worker; the next real dial still gets an answer.
TEST(Introspect, IdleClientCannotWedgeTheServer) {
  service::SchedulerServiceOptions options;
  options.threads = 1;
  options.io_timeout_ms = 200;
  service::SchedulerService daemon(options);

  TcpStream idle = TcpStream::connect_loopback(daemon.port());
  ASSERT_TRUE(idle.valid());
  // The worker is now blocked reading this connection's Hello; the 200ms
  // deadline frees it. The client's own 5s deadline bounds the wait.
  ClientSessionOptions client;
  client.io_timeout_ms = 5000;
  ClientSession session = ClientSession::dial_rpc(daemon.port(), client);
  EXPECT_NE(session.introspect("healthz").find("\"status\":\"ok\""),
            std::string::npos);
  daemon.stop();
}

// The full observability stack is observation-only: serving introspection
// requests mid-solve changes no schedule byte versus a bare solve.
TEST(Introspect, FullStackDoesNotChangeSchedules) {
  const BipartiteGraph g = [] {
    Rng rng(21);
    RandomGraphConfig config;
    config.max_left = 12;
    config.max_right = 12;
    config.max_edges = 60;
    config.min_weight = 1;
    config.max_weight = 20;
    return random_bipartite(rng, config);
  }();
  const SolverOptions options{4, 1, Algorithm::kOGGP};
  const Schedule plain = solve_kpbs(g, options).schedule;

  Schedule instrumented;
  {
    MetricsRegistry registry;
    Journal journal(4096);
    ScopedTelemetry telemetry(&registry, &journal);
    service::SchedulerService daemon;
    instrumented = solve_kpbs(g, options).schedule;
    ClientSession session = ClientSession::dial_rpc(daemon.port());
    const std::string body = session.introspect("statusz");
    EXPECT_NE(body.find("\"solves_finished\":1"), std::string::npos) << body;
    daemon.stop();
  }

  ASSERT_EQ(plain.step_count(), instrumented.step_count());
  for (std::size_t s = 0; s < plain.step_count(); ++s) {
    const Step& sp = plain.steps()[s];
    const Step& si = instrumented.steps()[s];
    ASSERT_EQ(sp.comms.size(), si.comms.size()) << "step " << s;
    for (std::size_t c = 0; c < sp.comms.size(); ++c) {
      EXPECT_EQ(sp.comms[c].sender, si.comms[c].sender);
      EXPECT_EQ(sp.comms[c].receiver, si.comms[c].receiver);
      EXPECT_EQ(sp.comms[c].amount, si.comms[c].amount);
    }
  }
}

}  // namespace
}  // namespace redist::obs
