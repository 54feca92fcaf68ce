#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/app.hpp"

namespace sparcs::cli {
namespace {

struct CliRun {
  int exit_code;
  std::string out;
  std::string err;
};

CliRun run_cli(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int code = run(args, out, err);
  return {code, out.str(), err.str()};
}

TEST(CliTest, NoArgsPrintsUsage) {
  const CliRun r = run_cli({});
  EXPECT_EQ(r.exit_code, 4);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(CliTest, UnknownOptionFails) {
  const CliRun r = run_cli({"--workload", "ar", "--bogus"});
  EXPECT_EQ(r.exit_code, 4);
  EXPECT_EQ(r.err.rfind("error: unknown option --bogus\n", 0), 0u) << r.err;
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
  EXPECT_EQ(r.err.find("precondition failed"), std::string::npos) << r.err;
}

TEST(CliTest, HelpPrintsUsageOnStdout) {
  for (const char* flag : {"--help", "-h"}) {
    const CliRun r = run_cli({flag});
    EXPECT_EQ(r.exit_code, 0) << flag;
    EXPECT_EQ(r.out.rfind("usage:", 0), 0u) << flag;
    EXPECT_TRUE(r.err.empty()) << flag << ": " << r.err;
  }
}

TEST(CliTest, WorkloadAndFileAreExclusive) {
  const CliRun r = run_cli({"somefile.tg", "--workload", "ar"});
  EXPECT_EQ(r.exit_code, 4);
}

TEST(CliTest, RunsArWorkload) {
  const CliRun r = run_cli({"--workload", "ar", "--rmax", "200", "--mmax",
                            "64", "--ct", "50", "--delta", "20"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("best:"), std::string::npos);
  EXPECT_NE(r.out.find("partitions used"), std::string::npos);
  EXPECT_NE(r.out.find("Dmax(ns)"), std::string::npos);  // trace table
}

TEST(CliTest, QuietSuppressesTrace) {
  const CliRun r = run_cli({"--workload", "ar", "--rmax", "200", "--mmax",
                            "64", "--ct", "50", "--delta", "20", "--quiet"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.out.find("Dmax(ns)"), std::string::npos);
}

TEST(CliTest, SimulateAddsGantt) {
  const CliRun r = run_cli({"--workload", "ewf", "--ct", "50", "--delta",
                            "50", "--quiet", "--simulate"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("makespan"), std::string::npos);
}

TEST(CliTest, OptimalReference) {
  const CliRun r = run_cli({"--workload", "ar", "--rmax", "200", "--mmax",
                            "64", "--ct", "50", "--delta", "10", "--quiet",
                            "--optimal"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("optimal reference:"), std::string::npos);
}

// Latencies print in whole ns: at Ct = 1e7 six significant digits would
// render 30001150 and 30001290 alike.
TEST(CliTest, LatenciesPrintInWholeNanoseconds) {
  const CliRun r = run_cli({"--workload", "ar", "--rmax", "200", "--mmax",
                            "64", "--ct", "1e7", "--delta", "5", "--quiet",
                            "--optimal"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("best: 30001150 ns"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("optimal reference: 30001150 ns (optimal)"),
            std::string::npos)
      << r.out;
}

TEST(CliTest, ReadsGraphFileWithDevice) {
  const std::string path = ::testing::TempDir() + "/cli_demo.tg";
  {
    std::ofstream file(path);
    file << R"(graph filedemo
device board 200 64 50
task a 8 0
point a fast 90 120
point a small 50 260
task b 0 4
point b only 60 150
edge a b 8
)";
  }
  const CliRun r = run_cli({path, "--delta", "10", "--quiet"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("filedemo"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, MissingFileFails) {
  const CliRun r = run_cli({"/nonexistent/path.tg"});
  EXPECT_EQ(r.exit_code, 4);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(CliTest, ExportsDotAndCsv) {
  const std::string dot = ::testing::TempDir() + "/cli_out.dot";
  const std::string csv = ::testing::TempDir() + "/cli_out.csv";
  const CliRun r = run_cli({"--workload", "ar", "--rmax", "200", "--mmax",
                            "64", "--ct", "50", "--delta", "20", "--quiet",
                            "--dot", dot, "--csv", csv});
  EXPECT_EQ(r.exit_code, 0);
  std::ifstream dot_in(dot), csv_in(csv);
  EXPECT_TRUE(dot_in.good());
  EXPECT_TRUE(csv_in.good());
  std::string first_line;
  std::getline(csv_in, first_line);
  EXPECT_NE(first_line.find("N,iteration"), std::string::npos);
  std::remove(dot.c_str());
  std::remove(csv.c_str());
}

TEST(CliTest, WritesMetricsAndTraceJson) {
  const std::string metrics = ::testing::TempDir() + "/cli_metrics.json";
  const std::string trace = ::testing::TempDir() + "/cli_trace.json";
  const CliRun r = run_cli({"--workload", "ar", "--rmax", "200", "--mmax",
                            "64", "--ct", "50", "--delta", "20", "--quiet",
                            "--metrics-json", metrics, "--trace-json", trace});
  EXPECT_EQ(r.exit_code, 0) << r.err;

  std::ifstream metrics_in(metrics);
  ASSERT_TRUE(metrics_in.good());
  std::stringstream metrics_text;
  metrics_text << metrics_in.rdbuf();
  EXPECT_EQ(metrics_text.str().front(), '{');
  EXPECT_NE(metrics_text.str().find("\"counters\""), std::string::npos);
  EXPECT_NE(metrics_text.str().find("milp.solves"), std::string::npos);

  std::ifstream trace_in(trace);
  ASSERT_TRUE(trace_in.good());
  std::stringstream trace_text;
  trace_text << trace_in.rdbuf();
  EXPECT_EQ(trace_text.str().front(), '[');
  EXPECT_NE(trace_text.str().find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace_text.str().find("milp::solve"), std::string::npos);
  EXPECT_NE(trace_text.str().find("Reduce_Latency"), std::string::npos);

  std::remove(metrics.c_str());
  std::remove(trace.c_str());
}

TEST(CliTest, TraceJsonIsEmittedEvenWhenLogsAreOff) {
  // Span emission must not depend on the log level: --trace-json writes the
  // file (with real spans in it) even under --quiet / --log-level off.
  const std::string trace = ::testing::TempDir() + "/cli_trace_quiet.json";
  const CliRun r = run_cli({"--workload", "ar", "--rmax", "200", "--mmax",
                            "64", "--ct", "50", "--delta", "20", "--quiet",
                            "--log-level", "off", "--trace-json", trace});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_EQ(r.out.find("Dmax(ns)"), std::string::npos);  // table suppressed

  std::ifstream trace_in(trace);
  ASSERT_TRUE(trace_in.good());
  std::stringstream trace_text;
  trace_text << trace_in.rdbuf();
  EXPECT_NE(trace_text.str().find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace_text.str().find("milp::solve"), std::string::npos);
  std::remove(trace.c_str());
}

TEST(CliTest, WritesReportJson) {
  const std::string report = ::testing::TempDir() + "/cli_report.json";
  const CliRun r = run_cli({"--workload", "ar", "--rmax", "200", "--mmax",
                            "64", "--ct", "50", "--delta", "20", "--quiet",
                            "--report-json", report});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  std::ifstream report_in(report);
  ASSERT_TRUE(report_in.good());
  std::stringstream report_text;
  report_text << report_in.rdbuf();
  EXPECT_EQ(report_text.str().front(), '{');
  EXPECT_NE(report_text.str().find("\"feasible\": true"), std::string::npos);
  EXPECT_NE(report_text.str().find("\"trace\""), std::string::npos);
  EXPECT_NE(report_text.str().find("\"solver_stats\""), std::string::npos);
  std::remove(report.c_str());
}

TEST(CliTest, ThreadsFlagIsAcceptedAndValidated) {
  const CliRun r = run_cli({"--workload", "ar", "--rmax", "200", "--mmax",
                            "64", "--ct", "50", "--delta", "20", "--quiet",
                            "--threads", "2"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("best:"), std::string::npos);

  const CliRun bad = run_cli({"--workload", "ar", "--threads", "-1"});
  EXPECT_EQ(bad.exit_code, 4);
  EXPECT_NE(bad.err.find("--threads"), std::string::npos);
}

TEST(CliTest, MalformedNumbersAreBadInput) {
  // Each value must be rejected whole: no abort on an uncaught std
  // exception, no silent truncation ("50abc" -> 50, "2.5" -> 2), and no
  // time limit every probe hits at once. A flag given last without its value
  // is bad input too. The message is the bare text, without the
  // "precondition failed: (expr) at file:line" of an internal check.
  const std::vector<std::vector<std::string>> cases = {
      {"--ct", "abc"},         {"--ct", "50abc"},       {"--threads", "x"},
      {"--threads", "2.5"},    {"--rmax", "1e999"},     {"--time-limit", "0"},
      {"--time-limit", "nan"}, {"--ct"},
  };
  for (const std::vector<std::string>& tail : cases) {
    std::vector<std::string> args = {"--workload", "ar", "--rmax", "200",
                                     "--mmax", "64", "--ct", "50", "--quiet"};
    args.insert(args.end(), tail.begin(), tail.end());
    const std::string& flag = tail[0];
    const CliRun r = run_cli(args);
    EXPECT_EQ(r.exit_code, 4) << flag << ": " << r.err;
    EXPECT_EQ(r.err.rfind("error: " + flag, 0), 0u) << r.err;
    EXPECT_EQ(r.err.find("precondition failed"), std::string::npos) << r.err;
  }

  const CliRun submit = run_cli({"submit", "--socket", "/nonexistent",
                                 "--workload", "ar", "--ct", "abc"});
  EXPECT_EQ(submit.exit_code, 4) << submit.err;
  EXPECT_NE(submit.err.find("error:"), std::string::npos);
  EXPECT_NE(submit.err.find("--ct"), std::string::npos);

  const CliRun no_graph = run_cli({"submit", "--socket", "/nonexistent"});
  EXPECT_EQ(no_graph.exit_code, 4) << no_graph.err;
  EXPECT_EQ(no_graph.err.rfind("error: submit needs exactly one of", 0), 0u)
      << no_graph.err;
}

TEST(CliTest, SubmitAcceptsBothCertifyForms) {
  // submit parses --certify like the one-shot run: both forms get the client
  // as far as connecting, and an unknown mode fails before it.
  const std::vector<std::vector<std::string>> forms = {
      {"--certify=full"}, {"--certify", "full"}};
  for (const std::vector<std::string>& form : forms) {
    std::vector<std::string> args = {"submit", "--socket", "/nonexistent",
                                     "--workload", "ar"};
    args.insert(args.end(), form.begin(), form.end());
    const CliRun r = run_cli(args);
    EXPECT_EQ(r.exit_code, 4) << form[0];
    EXPECT_NE(r.err.find("cannot connect"), std::string::npos) << r.err;
    EXPECT_EQ(r.err.find("unknown submit option"), std::string::npos)
        << r.err;
  }
  const CliRun bad = run_cli({"submit", "--socket", "/nonexistent",
                              "--workload", "ar", "--certify=maybe"});
  EXPECT_EQ(bad.exit_code, 4);
  EXPECT_NE(bad.err.find("unknown --certify mode 'maybe'"), std::string::npos)
      << bad.err;
  EXPECT_EQ(bad.err.find("cannot connect"), std::string::npos) << bad.err;
}

TEST(CliTest, LogLevelFlagControlsTraceTable) {
  const CliRun loud = run_cli({"--workload", "ar", "--rmax", "200", "--mmax",
                               "64", "--ct", "50", "--delta", "20",
                               "--log-level", "warning"});
  EXPECT_EQ(loud.exit_code, 0);
  EXPECT_NE(loud.out.find("Dmax(ns)"), std::string::npos);

  const CliRun silent = run_cli({"--workload", "ar", "--rmax", "200",
                                 "--mmax", "64", "--ct", "50", "--delta",
                                 "20", "--log-level", "error"});
  EXPECT_EQ(silent.exit_code, 0);
  EXPECT_EQ(silent.out.find("Dmax(ns)"), std::string::npos);

  const CliRun bad = run_cli({"--workload", "ar", "--log-level", "verbose"});
  EXPECT_EQ(bad.exit_code, 4);
  EXPECT_NE(bad.err.find("unknown log level"), std::string::npos);
}

TEST(CliTest, InfeasibleDeviceReportsExitCode2) {
  // Memory too small for the AR filter's environment data.
  const CliRun r = run_cli({"--workload", "ar", "--rmax", "200", "--mmax",
                            "1", "--ct", "50", "--delta", "20", "--quiet"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.out.find("no feasible"), std::string::npos);
}

TEST(CliTest, StartAboveTheTaskCountIsStillProbed) {
  // alpha = 6 starts the AR filter's sweep at N = 7, above its 6 tasks and
  // above N^u_min + gamma: the first stage must still run.
  const CliRun r = run_cli({"--workload", "ar", "--alpha", "6", "--quiet"});
  EXPECT_EQ(r.exit_code, 0) << r.out << r.err;
  EXPECT_NE(r.out.find("best: 1000 ns at N=7"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("1 ILP solves"), std::string::npos) << r.out;
}

TEST(CliTest, NegativeRelaxationsAreBadInput) {
  for (const std::string flag : {"--alpha", "--gamma"}) {
    const CliRun r = run_cli({"--workload", "ar", flag, "-1", "--quiet"});
    EXPECT_EQ(r.exit_code, 4) << flag;
    EXPECT_NE(r.err.find(flag.substr(2) + " must be non-negative"),
              std::string::npos)
        << flag << ": " << r.err;
  }
}

TEST(CliTest, DeadlineFlagIsValidated) {
  const CliRun bad = run_cli({"--workload", "ar", "--deadline-sec", "0"});
  EXPECT_EQ(bad.exit_code, 4);
  EXPECT_NE(bad.err.find("--deadline-sec"), std::string::npos);
}

TEST(CliTest, NegativeDeltaIsBadInput) {
  // 0 asks for the default tolerance; a negative one is refused, not
  // silently replaced by the default.
  const CliRun r = run_cli({"--workload", "ar", "--delta", "-1", "--quiet"});
  EXPECT_EQ(r.exit_code, 4);
  EXPECT_NE(r.err.find("--delta"), std::string::npos) << r.err;
}

// A Ct so large that MaxLatency(N) overflows a double is refused as input,
// naming the flag, before any model is built.
TEST(CliTest, LatencyBoundOverflowIsBadInput) {
  const CliRun r = run_cli({"--workload", "ar", "--rmax", "200", "--mmax",
                            "64", "--ct", "1e308", "--quiet"});
  EXPECT_EQ(r.exit_code, 4);
  EXPECT_NE(r.err.find("error: --ct 1e+308 overflows the latency bound"),
            std::string::npos)
      << r.err;
  EXPECT_EQ(r.err.find("precondition failed"), std::string::npos) << r.err;
  EXPECT_EQ(r.out.find("graph '"), std::string::npos) << r.out;
}

TEST(CliTest, PartitionCountOverflowIsBadInput) {
  const CliRun r =
      run_cli({"--workload", "ar", "--rmax", "1e-300", "--quiet"});
  EXPECT_EQ(r.exit_code, 4);
  EXPECT_NE(r.err.find("error: --rmax 1e-300 puts the partition count "
                       "MaxAreaPartitions past int range"),
            std::string::npos)
      << r.err;
  EXPECT_EQ(r.err.find("precondition failed"), std::string::npos) << r.err;
  EXPECT_EQ(r.out.find("graph '"), std::string::npos) << r.out;
}

// A device parameter out of its range is refused as input naming the flag,
// not as a failed precondition of the device.
TEST(CliTest, DeviceParameterOutOfRangeIsBadInput) {
  const std::pair<const char*, const char*> cases[] = {
      {"--rmax", "0"}, {"--mmax", "-1"}, {"--ct", "-5"}};
  for (const auto& [flag, value] : cases) {
    const CliRun r = run_cli({"--workload", "ar", flag, value, "--quiet"});
    EXPECT_EQ(r.exit_code, 4) << flag;
    EXPECT_NE(r.err.find("error: " + std::string(flag) + " " + value +
                         " must be finite and "),
              std::string::npos)
        << r.err;
    EXPECT_EQ(r.err.find("precondition failed"), std::string::npos) << r.err;
  }
}

// A task whose data to and from the host sum past the double range would
// give the memory rows an infinite coefficient: the file is refused as
// input, naming the task, before any model is built.
TEST(CliTest, MemoryCoefficientOverflowIsBadInput) {
  const std::string path = ::testing::TempDir() + "/cli_env_overflow.tg";
  {
    std::ofstream file(path);
    file << R"(graph envy
device d 100 100 10
task a 1.7e308 1.7e308
point a fast 90 10
task b 0 0
point b only 60 10
edge a b 1
)";
  }
  const CliRun r = run_cli({path, "--quiet"});
  EXPECT_EQ(r.exit_code, 4);
  EXPECT_NE(r.err.find("error: task 'a': env_in 1.7e+308 + env_out 1.7e+308 "
                       "overflows its memory coefficient"),
            std::string::npos)
      << r.err;
  EXPECT_EQ(r.err.find("precondition failed"), std::string::npos) << r.err;
  EXPECT_EQ(r.out.find("graph '"), std::string::npos) << r.out;
  std::remove(path.c_str());
}

TEST(CliTest, DeadlineBeyondTheClockRangeStillSucceeds) {
  // 1e300 s overflows the steady clock's nanoseconds; the deadline must
  // saturate rather than wrap into the past or overflow a time limit.
  const CliRun r =
      run_cli({"--workload", "ar", "--quiet", "--deadline-sec", "1e300"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("best:"), std::string::npos);
}

TEST(CliTest, GenerousDeadlineStillSucceeds) {
  const CliRun r = run_cli({"--workload", "ar", "--rmax", "200", "--mmax",
                            "64", "--ct", "50", "--delta", "20", "--quiet",
                            "--deadline-sec", "300"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("best:"), std::string::npos);
  EXPECT_EQ(r.out.find("degraded"), std::string::npos);
}

TEST(CliTest, TightDeadlineReportsDegradedExitCode3) {
  // A sub-millisecond deadline cannot finish the sweep: the CLI must still
  // return (no hang), print the degradation summary, and exit 3. A fine
  // delta makes the unconstrained sweep long enough that expiry mid-run is
  // certain.
  const std::string report = ::testing::TempDir() + "/cli_degraded.json";
  const CliRun r = run_cli({"--workload", "ar", "--rmax", "200", "--mmax",
                            "64", "--ct", "50", "--delta", "0.05", "--quiet",
                            "--deadline-sec", "0.001", "--report-json",
                            report});
  EXPECT_EQ(r.exit_code, 3) << r.out << r.err;
  EXPECT_NE(r.out.find("degraded"), std::string::npos);

  std::ifstream report_in(report);
  ASSERT_TRUE(report_in.good());
  std::stringstream report_text;
  report_text << report_in.rdbuf();
  EXPECT_NE(report_text.str().find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(report_text.str().find("\"stages\""), std::string::npos);
  std::remove(report.c_str());
}

TEST(CliTest, UsageDocumentsExitCodes) {
  const CliRun r = run_cli({});
  EXPECT_NE(r.err.find("exit codes"), std::string::npos);
  EXPECT_NE(r.err.find("--deadline-sec"), std::string::npos);
  EXPECT_NE(r.err.find("--telemetry-jsonl"), std::string::npos);
  EXPECT_NE(r.err.find("--search-tree-json"), std::string::npos);
  EXPECT_NE(r.err.find("--log-json"), std::string::npos);
}

TEST(CliTest, WritesTelemetryJsonl) {
  const std::string telemetry = ::testing::TempDir() + "/cli_telemetry.jsonl";
  const CliRun r = run_cli({"--workload", "ar", "--rmax", "200", "--mmax",
                            "64", "--ct", "50", "--delta", "20", "--quiet",
                            "--telemetry-jsonl", telemetry,
                            "--telemetry-interval-ms", "20"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("wrote " + telemetry), std::string::npos);

  std::ifstream in(telemetry);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  bool saw_start = false, saw_sample = false, saw_final = false;
  bool saw_stage = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    // Every record is a single-line JSON object.
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    if (line.find("\"type\": \"start\"") != std::string::npos) saw_start = true;
    if (line.find("\"type\": \"sample\"") != std::string::npos)
      saw_sample = true;
    if (line.find("\"type\": \"final\"") != std::string::npos) saw_final = true;
    if (line.find("\"trigger\": \"stage\"") != std::string::npos)
      saw_stage = true;
  }
  EXPECT_GE(lines, 3);
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_sample);
  EXPECT_TRUE(saw_final);
  EXPECT_TRUE(saw_stage);  // at least one sample per sweep stage transition
  std::remove(telemetry.c_str());
}

TEST(CliTest, TelemetryIntervalIsValidated) {
  const CliRun r = run_cli({"--workload", "ar", "--telemetry-jsonl", "x",
                            "--telemetry-interval-ms", "0"});
  EXPECT_EQ(r.exit_code, 4);
  EXPECT_NE(r.err.find("--telemetry-interval-ms"), std::string::npos);
}

TEST(CliTest, WritesSearchTreeDumps) {
  const std::string tree_json = ::testing::TempDir() + "/cli_tree.json";
  const std::string tree_dot = ::testing::TempDir() + "/cli_tree.dot";
  const CliRun r = run_cli({"--workload", "ar", "--rmax", "200", "--mmax",
                            "64", "--ct", "50", "--delta", "20", "--quiet",
                            "--search-tree-json", tree_json,
                            "--search-tree-dot", tree_dot});
  EXPECT_EQ(r.exit_code, 0) << r.err;

  std::ifstream json_in(tree_json);
  ASSERT_TRUE(json_in.good());
  std::stringstream json_text;
  json_text << json_in.rdbuf();
  EXPECT_EQ(json_text.str().front(), '{');
  EXPECT_NE(json_text.str().find("\"nodes\""), std::string::npos);
  EXPECT_NE(json_text.str().find("\"recorded\""), std::string::npos);

  std::ifstream dot_in(tree_dot);
  ASSERT_TRUE(dot_in.good());
  std::stringstream dot_text;
  dot_text << dot_in.rdbuf();
  EXPECT_NE(dot_text.str().find("digraph"), std::string::npos);
  std::remove(tree_json.c_str());
  std::remove(tree_dot.c_str());
}

TEST(CliTest, WritesJsonLogsWithCorrelationIds) {
  const std::string logs = ::testing::TempDir() + "/cli_logs.jsonl";
  const CliRun r = run_cli({"--workload", "ar", "--rmax", "200", "--mmax",
                            "64", "--ct", "50", "--delta", "20", "--quiet",
                            "--log-level", "debug", "--log-json", logs});
  EXPECT_EQ(r.exit_code, 0) << r.err;

  std::ifstream in(logs);
  ASSERT_TRUE(in.good());
  std::string line;
  bool saw_corr = false;
  int lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_NE(line.find("\"msg\""), std::string::npos) << line;
    if (line.find("\"corr\"") != std::string::npos) saw_corr = true;
  }
  EXPECT_GT(lines, 0);
  // The per-probe debug statement runs inside a correlation scope, so at
  // least one record joins with the telemetry/span streams.
  EXPECT_TRUE(saw_corr);
  std::remove(logs.c_str());
}

TEST(CliTest, CheckpointFlagsAreValidated) {
  const CliRun no_file = run_cli({"--workload", "ar", "--resume"});
  EXPECT_EQ(no_file.exit_code, 4);
  EXPECT_NE(no_file.err.find("--resume needs --checkpoint"),
            std::string::npos);

  const CliRun bad_interval = run_cli(
      {"--workload", "ar", "--checkpoint", "x", "--checkpoint-interval-sec",
       "-1"});
  EXPECT_EQ(bad_interval.exit_code, 4);
  EXPECT_NE(bad_interval.err.find("--checkpoint-interval-sec"),
            std::string::npos);
}

TEST(CliTest, CheckpointIsWrittenAndResumable) {
  const std::string ckpt = ::testing::TempDir() + "/cli_ckpt.json";
  const CliRun first = run_cli({"--workload", "ar", "--rmax", "200", "--mmax",
                                "64", "--ct", "50", "--delta", "20", "--quiet",
                                "--checkpoint", ckpt});
  EXPECT_EQ(first.exit_code, 0) << first.err;

  // The on-disk checkpoint is one valid CRC-sealed JSON document.
  std::ifstream in(ckpt);
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"format\": \"sparcs-sweep-checkpoint\""),
            std::string::npos);
  EXPECT_NE(text.str().find("\"complete\": true"), std::string::npos);
  EXPECT_NE(text.str().find("\"crc32\":\""), std::string::npos);

  // Resuming the complete checkpoint reproduces the answer.
  const CliRun second = run_cli({"--workload", "ar", "--rmax", "200",
                                 "--mmax", "64", "--ct", "50", "--delta",
                                 "20", "--quiet", "--checkpoint", ckpt,
                                 "--resume"});
  EXPECT_EQ(second.exit_code, 0) << second.err;
  EXPECT_NE(second.out.find("resumed from checkpoint"), std::string::npos);
  EXPECT_NE(second.out.find("best:"), std::string::npos);
  std::remove(ckpt.c_str());
}

TEST(CliTest, DamagedCheckpointWarnsAndRunsFresh) {
  const std::string ckpt = ::testing::TempDir() + "/cli_ckpt_bad.json";
  {
    std::ofstream os(ckpt);
    os << "{\"not\":\"a checkpoint\"}";
  }
  const CliRun r = run_cli({"--workload", "ar", "--rmax", "200", "--mmax",
                            "64", "--ct", "50", "--delta", "20", "--quiet",
                            "--checkpoint", ckpt, "--resume"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.err.find("warning: started fresh"), std::string::npos) << r.err;
  EXPECT_EQ(r.out.find("resumed from checkpoint"), std::string::npos);
  EXPECT_NE(r.out.find("best:"), std::string::npos);
  std::remove(ckpt.c_str());
}

TEST(CliTest, ArtifactWriteFailureYieldsExitCode6) {
  // A run that succeeds but cannot land a requested artifact must say so in
  // the exit code — not silently report success with a missing file.
  const CliRun r = run_cli({"--workload", "ar", "--rmax", "200", "--mmax",
                            "64", "--ct", "50", "--delta", "20", "--quiet",
                            "--report-json",
                            "/nonexistent_dir_sparcs/report.json"});
  EXPECT_EQ(r.exit_code, 6) << r.err;
  EXPECT_NE(r.err.find("warning: cannot write report"), std::string::npos)
      << r.err;
  // The degraded/infeasible codes still win over the artifact code.
  const CliRun infeasible = run_cli(
      {"--workload", "ar", "--rmax", "200", "--mmax", "1", "--ct", "50",
       "--delta", "20", "--quiet", "--report-json",
       "/nonexistent_dir_sparcs/report.json"});
  EXPECT_EQ(infeasible.exit_code, 2);
}

TEST(CliTest, UsageDocumentsCheckpointingAndSignals) {
  const CliRun r = run_cli({});
  EXPECT_NE(r.err.find("--checkpoint FILE"), std::string::npos);
  EXPECT_NE(r.err.find("--resume"), std::string::npos);
  EXPECT_NE(r.err.find("SIGINT/SIGTERM"), std::string::npos);
  EXPECT_NE(r.err.find("5  preempted"), std::string::npos);
  EXPECT_NE(r.err.find("6  an artifact"), std::string::npos);
}

TEST(CliTest, TelemetryStateResetsBetweenRuns) {
  // Two runs in one process: the guard must restore the disabled state, and
  // the second run's telemetry must start from a clean pipeline (its first
  // records must not leak the first run's stage or incumbent).
  const std::string first = ::testing::TempDir() + "/cli_t1.jsonl";
  const std::string second = ::testing::TempDir() + "/cli_t2.jsonl";
  ASSERT_EQ(run_cli({"--workload", "ar", "--rmax", "200", "--mmax", "64",
                     "--ct", "50", "--delta", "20", "--quiet",
                     "--telemetry-jsonl", first}).exit_code, 0);
  ASSERT_EQ(run_cli({"--workload", "ar", "--rmax", "200", "--mmax", "64",
                     "--ct", "50", "--delta", "20", "--quiet",
                     "--telemetry-jsonl", second}).exit_code, 0);
  std::ifstream in(second);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);  // the "start" record precedes any sample
  EXPECT_NE(line.find("\"type\": \"start\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"solves_completed\": 0"), std::string::npos) << line;
  std::remove(first.c_str());
  std::remove(second.c_str());
}

}  // namespace
}  // namespace sparcs::cli
