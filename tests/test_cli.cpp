// End-to-end tests of tools/redist_cli: every subcommand exercised against
// real files in a temp directory. The binary path comes from CMake via the
// REDIST_CLI_PATH compile definition.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

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
  const CommandResult r = run_cli("frobnicate");
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.output.find("unknown subcommand"), std::string::npos);
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
  EXPECT_NE(metrics_json.find("\"warm.ledger.hits\""), std::string::npos);
  EXPECT_NE(metrics_json.find("\"bottleneck.probes\""), std::string::npos);

  const std::string trace_json = slurp(trace);
  EXPECT_NE(trace_json.find("\"traceEvents\""), std::string::npos);
  for (const char* span : {"\"solve_kpbs\"", "\"regularize\"", "\"wrgp.step\"",
                           "\"bottleneck.probe\"", "\"hk.phase\""}) {
    EXPECT_NE(trace_json.find(span), std::string::npos) << span;
  }
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

TEST(Cli, BatchPrintsSummaryTableAndMetrics) {
  const std::string graph = temp_dir() + "/batch_g.txt";
  const std::string metrics = temp_dir() + "/batch_m.json";
  ASSERT_EQ(run_cli("generate --out=" + graph +
                    " --seed=13 --max-nodes=8 --max-edges=24")
                .status,
            0);
  const CommandResult batch =
      run_cli("batch --in=" + graph + "," + graph +
              " --k=3 --threads=2 --metrics-out=" + metrics);
  ASSERT_EQ(batch.status, 0) << batch.output;
  EXPECT_NE(batch.output.find("instance"), std::string::npos);
  EXPECT_NE(batch.output.find("solve_ms"), std::string::npos);
  EXPECT_NE(batch.output.find("instances/s"), std::string::npos);
  const std::string metrics_json = slurp(metrics);
  EXPECT_NE(metrics_json.find("\"kpbs.batch.instances\": 2"),
            std::string::npos);
  EXPECT_NE(metrics_json.find("\"runtime.pool.tasks\": 2"),
            std::string::npos);
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
