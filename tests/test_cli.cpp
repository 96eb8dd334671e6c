// End-to-end tests of tools/redist_cli: every subcommand exercised against
// real files in a temp directory. The binary path comes from CMake via the
// REDIST_CLI_PATH compile definition.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

namespace redist {
namespace {

std::string temp_dir() {
  static const std::string dir = []() {
    char tmpl[] = "/tmp/redist_cli_test_XXXXXX";
    const char* made = mkdtemp(tmpl);
    return std::string(made != nullptr ? made : "/tmp");
  }();
  return dir;
}

struct CommandResult {
  int status = -1;
  std::string output;
};

CommandResult run_cli(const std::string& args) {
  const std::string command =
      std::string(REDIST_CLI_PATH) + " " + args + " 2>&1";
  CommandResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[512];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  result.status = pclose(pipe);
  return result;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(Cli, NoArgumentsShowsUsage) {
  const CommandResult r = run_cli("");
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.output.find("usage"), std::string::npos);
}

TEST(Cli, UnknownSubcommandFails) {
  // `serve` was the standalone introspection server and `batch` a
  // pre-daemon fan-out; the daemon serves introspection and concurrent
  // `submit` clients now.
  for (const char* cmd : {"frobnicate", "serve", "batch"}) {
    const CommandResult r = run_cli(cmd);
    ASSERT_TRUE(WIFEXITED(r.status)) << cmd;
    EXPECT_EQ(WEXITSTATUS(r.status), 2) << cmd;
    EXPECT_NE(r.output.find("unknown subcommand"), std::string::npos) << cmd;
  }
}

TEST(Cli, GenerateSolveAnalyzeGanttPipeline) {
  const std::string graph = temp_dir() + "/g.txt";
  const std::string sched = temp_dir() + "/s.txt";
  const std::string svg = temp_dir() + "/g.svg";

  const CommandResult gen = run_cli(
      "generate --out=" + graph + " --seed=5 --max-nodes=8 --max-edges=20");
  ASSERT_EQ(gen.status, 0) << gen.output;
  EXPECT_FALSE(slurp(graph).empty());

  const CommandResult solve = run_cli("solve --in=" + graph +
                                      " --k=3 --beta=1 --algo=oggp --out=" +
                                      sched + " --quiet");
  ASSERT_EQ(solve.status, 0) << solve.output;
  EXPECT_NE(solve.output.find("OGGP:"), std::string::npos);
  EXPECT_NE(solve.output.find("ratio"), std::string::npos);
  EXPECT_EQ(slurp(sched).rfind("schedule ", 0), 0u);

  const CommandResult lb = run_cli("lb --in=" + graph + " --k=3");
  ASSERT_EQ(lb.status, 0) << lb.output;
  EXPECT_NE(lb.output.find("lower bound"), std::string::npos);

  const CommandResult analyze =
      run_cli("analyze --in=" + graph + " --k=3 --algo=ggp");
  ASSERT_EQ(analyze.status, 0) << analyze.output;
  EXPECT_NE(analyze.output.find("slot utilization"), std::string::npos);
  EXPECT_NE(analyze.output.find("barrier-relaxed"), std::string::npos);

  const CommandResult gantt =
      run_cli("gantt --in=" + graph + " --out=" + svg + " --k=3");
  ASSERT_EQ(gantt.status, 0) << gantt.output;
  const std::string rendered = slurp(svg);
  EXPECT_EQ(rendered.rfind("<svg", 0), 0u);
  EXPECT_NE(rendered.find("</svg>"), std::string::npos);
}

TEST(Cli, VerifyAcceptsSolverOutput) {
  const std::string graph = temp_dir() + "/verify_g.txt";
  const std::string sched = temp_dir() + "/verify_s.txt";
  ASSERT_EQ(run_cli("generate --out=" + graph +
                    " --seed=7 --max-nodes=8 --max-edges=20")
                .status,
            0);
  ASSERT_EQ(run_cli("solve --in=" + graph + " --k=3 --beta=1 --out=" + sched +
                    " --quiet")
                .status,
            0);
  const CommandResult ok =
      run_cli("verify --in=" + graph + " --schedule=" + sched +
              " --k=3 --beta=1 --bound");
  EXPECT_EQ(ok.status, 0) << ok.output;
  EXPECT_NE(ok.output.find("VALID"), std::string::npos);
}

// A negative --makespan used to switch the claimed-makespan check off and
// print VALID; a claimed makespan must be one.
TEST(Cli, VerifyRejectsNegativeMakespan) {
  const std::string graph = temp_dir() + "/makespan_g.txt";
  const std::string sched = temp_dir() + "/makespan_s.txt";
  ASSERT_EQ(run_cli("generate --out=" + graph +
                    " --seed=7 --max-nodes=8 --max-edges=20")
                .status,
            0);
  ASSERT_EQ(run_cli("solve --in=" + graph + " --k=3 --beta=1 --out=" + sched +
                    " --quiet")
                .status,
            0);
  for (const std::string value : {"-5", "-1"}) {
    const CommandResult r =
        run_cli("verify --in=" + graph + " --schedule=" + sched +
                " --k=3 --beta=1 --makespan=" + value);
    ASSERT_TRUE(WIFEXITED(r.status)) << value;
    EXPECT_EQ(WEXITSTATUS(r.status), 1) << value << '\n' << r.output;
    EXPECT_NE(r.output.find("--makespan must be >= 0"), std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("VALID"), std::string::npos) << r.output;
  }
}

TEST(Cli, VerifyRejectsTamperedSchedule) {
  const std::string graph = temp_dir() + "/tamper_g.txt";
  const std::string sched = temp_dir() + "/tamper_s.txt";
  ASSERT_EQ(run_cli("generate --out=" + graph +
                    " --seed=7 --max-nodes=8 --max-edges=20")
                .status,
            0);
  ASSERT_EQ(run_cli("solve --in=" + graph + " --k=3 --beta=1 --out=" + sched +
                    " --quiet")
                .status,
            0);
  // Inflate the last communication's amount: the pair now over-transfers.
  std::string text = slurp(sched);
  const std::size_t cut = text.find_last_not_of(" \n");
  ASSERT_NE(cut, std::string::npos);
  const std::size_t digits = text.find_last_not_of("0123456789", cut);
  ASSERT_NE(digits, std::string::npos);
  const long long amount = std::stoll(text.substr(digits + 1, cut - digits));
  text = text.substr(0, digits + 1) + std::to_string(amount + 1) + "\n";
  std::ofstream(sched) << text;

  const CommandResult bad = run_cli("verify --in=" + graph +
                                    " --schedule=" + sched + " --k=3 --beta=1");
  EXPECT_NE(bad.status, 0);
  EXPECT_NE(bad.output.find("INVALID"), std::string::npos) << bad.output;
  EXPECT_NE(bad.output.find("coverage"), std::string::npos) << bad.output;
}

TEST(Cli, SolveWritesMetricsAndTrace) {
  const std::string graph = temp_dir() + "/telemetry_g.txt";
  const std::string metrics = temp_dir() + "/telemetry_m.json";
  const std::string trace = temp_dir() + "/telemetry_t.json";
  // Seed 7 yields a 9x4, 31-edge instance — large enough that the warm
  // bottleneck search actually probes and Hopcroft–Karp runs phases.
  ASSERT_EQ(run_cli("generate --out=" + graph +
                    " --seed=7 --max-nodes=12 --max-edges=60")
                .status,
            0);
  const CommandResult solve =
      run_cli("solve --in=" + graph + " --k=3 --quiet" +
              " --metrics-out=" + metrics + " --trace-out=" + trace);
  ASSERT_EQ(solve.status, 0) << solve.output;
  EXPECT_NE(solve.output.find("metrics written to"), std::string::npos);
  EXPECT_NE(solve.output.find("trace written to"), std::string::npos);

  const std::string metrics_json = slurp(metrics);
  EXPECT_NE(metrics_json.find("\"schema\": \"redist.metrics.v1\""),
            std::string::npos);
  EXPECT_NE(metrics_json.find("\"wrgp.steps\""), std::string::npos);
  EXPECT_NE(metrics_json.find("\"bottleneck.widest_paths\""),
            std::string::npos);
  // One cap probe per OGGP step.
  const auto counter_value = [&](const std::string& name) -> long long {
    const std::size_t at = metrics_json.find("\"" + name + "\": ");
    return at == std::string::npos
               ? -1
               : std::atoll(metrics_json.c_str() + at + name.size() + 4);
  };
  EXPECT_GT(counter_value("bottleneck.probes"), 0);
  EXPECT_EQ(counter_value("bottleneck.probes"), counter_value("wrgp.steps"));

  // The trace is the journal's: the solve, its regularization and one
  // span per peel step.
  const std::string trace_json = slurp(trace);
  EXPECT_NE(trace_json.find("\"traceEvents\""), std::string::npos);
  for (const char* span :
       {"\"solve_kpbs\"", "\"regularize\"", "\"wrgp.step\""}) {
    EXPECT_NE(trace_json.find(span), std::string::npos) << span;
  }
  long long steps = 0;
  for (std::size_t at = trace_json.find("\"wrgp.step\"");
       at != std::string::npos; at = trace_json.find("\"wrgp.step\"", at + 1)) {
    ++steps;
  }
  EXPECT_EQ(steps, counter_value("wrgp.steps"));
}

TEST(Cli, SolveWritesMetricsCsv) {
  const std::string graph = temp_dir() + "/telemetry_csv_g.txt";
  const std::string metrics = temp_dir() + "/telemetry_m.csv";
  ASSERT_EQ(run_cli("generate --out=" + graph +
                    " --seed=12 --max-nodes=8 --max-edges=20")
                .status,
            0);
  ASSERT_EQ(run_cli("solve --in=" + graph + " --k=3 --quiet --metrics-out=" +
                    metrics)
                .status,
            0);
  const std::string csv = slurp(metrics);
  EXPECT_EQ(csv.rfind("name,kind,count,value,mean,min,max,p50,p95,p99\n", 0),
            0u);
  EXPECT_NE(csv.find("wrgp.steps,counter,"), std::string::npos);
}

TEST(Cli, DaemonRejectsNonPositiveCounts) {
  // Cast unchecked, -1 wraps to SIZE_MAX (a cache that never evicts, a
  // journal too large to allocate) and 0 threads silently runs one worker.
  // --linger-ms bounds a daemon that starts anyway.
  for (const std::string flag :
       {"--threads=0", "--cache-capacity=-1", "--cache-capacity=0",
        "--journal-capacity=-1"}) {
    const CommandResult r = run_cli("daemon --linger-ms=1 " + flag);
    ASSERT_TRUE(WIFEXITED(r.status)) << flag;
    EXPECT_EQ(WEXITSTATUS(r.status), 1) << flag << '\n' << r.output;
    const std::string name = flag.substr(0, flag.find('='));
    EXPECT_NE(r.output.find(name + " must be a positive count"),
              std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("daemon on"), std::string::npos)
        << "the listener opened before the flag was rejected: " << r.output;
  }
}

TEST(Cli, SimulateReportsBothModes) {
  const std::string graph = temp_dir() + "/sim.txt";
  ASSERT_EQ(run_cli("generate --out=" + graph +
                    " --seed=2 --max-nodes=5 --max-edges=10")
                .status,
            0);
  const CommandResult sim = run_cli("simulate --in=" + graph + " --k=2");
  ASSERT_EQ(sim.status, 0) << sim.output;
  EXPECT_NE(sim.output.find("brute force:"), std::string::npos);
  EXPECT_NE(sim.output.find("OGGP:"), std::string::npos);
}

// --k=0 made the default card rate infinite and --t=1e300 a byte count
// past INT64_MAX; both reached an undefined double-to-integer cast. A
// negative rate reached the traffic matrix as negative traffic. A tiny
// --t mapped edges to 0 bytes and a tiny --backbone made a step's duration
// infinite; both died on internal checks instead of a usage error.
TEST(Cli, SimulateRejectsOutOfDomainRates) {
  const std::string graph = temp_dir() + "/sim_domain.txt";
  ASSERT_EQ(run_cli("generate --out=" + graph +
                    " --seed=2 --max-nodes=5 --max-edges=10")
                .status,
            0);
  const std::pair<const char*, const char*> cases[] = {
      {"--k=0", "--k must be a positive count"},
      {"--k=-3", "--k must be a positive count"},
      {"--t=-5", "--t must be a positive finite rate"},
      {"--t=0", "--t must be a positive finite rate"},
      {"--t=inf", "--t must be a positive finite rate"},
      {"--t=nan", "--t must be a positive finite rate"},
      {"--backbone=0", "--backbone must be a positive finite rate"},
      {"--backbone=-1e9", "--backbone must be a positive finite rate"},
      {"--t=1e300", "overflows the byte count"},
      {"--t=1e-300", "is less than one byte"},
      {"--t=0.01", "is less than one byte"},
      {"--backbone=1e-300", "too slow to simulate"},
  };
  for (const auto& [flag, message] : cases) {
    const CommandResult r =
        run_cli("simulate --in=" + graph + " " + flag);
    ASSERT_TRUE(WIFEXITED(r.status)) << flag;
    EXPECT_EQ(WEXITSTATUS(r.status), 1) << flag << '\n' << r.output;
    EXPECT_NE(r.output.find(message), std::string::npos)
        << flag << '\n' << r.output;
    EXPECT_EQ(r.output.find("brute force:"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("check failed"), std::string::npos) << r.output;
  }
  // Slow but simulable rates still run.
  for (const char* flag : {"--t=1", "--backbone=1e-3"}) {
    const CommandResult r = run_cli("simulate --in=" + graph + " " + flag);
    EXPECT_EQ(r.status, 0) << flag << '\n' << r.output;
  }
}

TEST(Cli, BadAlgorithmNameFails) {
  const std::string graph = temp_dir() + "/bad.txt";
  ASSERT_EQ(run_cli("generate --out=" + graph + " --seed=1").status, 0);
  const CommandResult r = run_cli("solve --in=" + graph + " --algo=magic");
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.output.find("unknown algorithm"), std::string::npos);
}

TEST(Cli, MissingInputFileFails) {
  const CommandResult r = run_cli("solve --in=/nonexistent/graph.txt");
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.output.find("cannot open"), std::string::npos);
}

TEST(Cli, UnknownFlagFails) {
  const std::string graph = temp_dir() + "/flags.txt";
  ASSERT_EQ(run_cli("generate --out=" + graph + " --seed=1").status, 0);
  const CommandResult r = run_cli("solve --in=" + graph + " --tpyo=3");
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.output.find("unknown flag"), std::string::npos);
}

}  // namespace
}  // namespace redist
