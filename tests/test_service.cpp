// Tests for the solve service (src/service): protocol round trips and
// validation, job queue admission control / priority order / cancellation,
// and the daemon end to end over a real unix socket — concurrent clients,
// structured rejections, disconnect-cancels-job, graceful shutdown with
// preemption, and per-job artifact landing.
#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/tg_format.hpp"
#include "json_checker.hpp"
#include "service/client.hpp"
#include "service/job_queue.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"
#include "workloads/ar_filter.hpp"
#include "workloads/dct.hpp"
#include "workloads/synthetic.hpp"

namespace sparcs::service {
namespace {

using sparcs::testing::is_valid_json;

json::Value parse_ok(const std::string& line) {
  json::ParseResult parsed = json::parse(line);
  EXPECT_TRUE(parsed.ok) << parsed.error << " in: " << line;
  return std::move(parsed.value);
}

std::string error_code(const json::Value& response) {
  const json::Value* error = response.find("error");
  return error != nullptr ? error->member_string("code") : "";
}

// --- protocol --------------------------------------------------------------

TEST(ServiceProtocol, SubmitRoundTripsThroughSerializeAndParse) {
  Request request;
  request.op = "submit";
  request.submit.workload = "ar";
  request.submit.priority = 3;
  request.submit.detach = true;
  request.submit.rmax = 200.0;
  request.submit.delta = 20.0;
  request.submit.time_limit_sec = 2.5;
  request.submit.deadline_sec = 9.0;
  request.submit.certify = "incumbents";
  request.submit.est_memory_mb = 64.0;

  const std::string line = serialize_request(request);
  EXPECT_TRUE(is_valid_json(line));
  Request decoded;
  std::string error;
  ASSERT_TRUE(parse_request(line, &decoded, &error)) << error;
  EXPECT_EQ(decoded.op, "submit");
  EXPECT_EQ(decoded.submit.workload, "ar");
  EXPECT_EQ(decoded.submit.priority, 3);
  EXPECT_TRUE(decoded.submit.detach);
  ASSERT_TRUE(decoded.submit.rmax.has_value());
  EXPECT_DOUBLE_EQ(*decoded.submit.rmax, 200.0);
  EXPECT_FALSE(decoded.submit.mmax.has_value());
  EXPECT_DOUBLE_EQ(decoded.submit.delta, 20.0);
  EXPECT_DOUBLE_EQ(decoded.submit.time_limit_sec, 2.5);
  EXPECT_DOUBLE_EQ(decoded.submit.deadline_sec, 9.0);
  EXPECT_EQ(decoded.submit.certify, "incumbents");
  EXPECT_DOUBLE_EQ(decoded.submit.est_memory_mb, 64.0);

  // An older client's submit may still carry "checkpoint": like any key the
  // protocol does not name, it is ignored.
  EXPECT_TRUE(parse_request(
      R"({"op":"submit","workload":"ar","options":{"checkpoint":"yes"}})",
      &decoded, &error))
      << error;
}

TEST(ServiceProtocol, RejectsMalformedRequests) {
  Request request;
  std::string error;
  EXPECT_FALSE(parse_request("not json", &request, &error));
  EXPECT_FALSE(parse_request("[1,2]", &request, &error));
  EXPECT_FALSE(parse_request(R"({"job":"job-1"})", &request, &error));
  EXPECT_FALSE(parse_request(R"({"op":"frobnicate"})", &request, &error));
  EXPECT_FALSE(parse_request(R"({"op":"status"})", &request, &error));
  // Exactly one of workload/graph_text.
  EXPECT_FALSE(parse_request(R"({"op":"submit"})", &request, &error));
  EXPECT_FALSE(parse_request(
      R"({"op":"submit","workload":"ar","graph_text":"x"})", &request,
      &error));
  // Field validation.
  EXPECT_FALSE(parse_request(
      R"({"op":"submit","workload":"ar","options":{"time_limit_sec":0}})",
      &request, &error));
  EXPECT_FALSE(parse_request(
      R"({"op":"submit","workload":"ar","options":{"certify":"maybe"}})",
      &request, &error));
  EXPECT_FALSE(parse_request(
      R"({"op":"submit","workload":"ar","options":{"deadline_sec":-1}})",
      &request, &error));
  // A malformed line is a parse_error, an out-of-range value a bad_request.
  std::string code;
  EXPECT_FALSE(parse_request(R"({"op":"submit"})", &request, &error, &code));
  EXPECT_EQ(code, "parse_error");
  // An integer field takes only a whole number within int range: 1e20 or
  // 4294967297 must not wrap into a small value, nor 2.5 truncate to 2.
  const std::pair<const char*, const char*> bad_requests[] = {
      {R"({"op":"submit","workload":"ar","options":{"alpha":-1}})",
       "options.alpha"},
      {R"({"op":"submit","workload":"ar","options":{"gamma":-1}})",
       "options.gamma"},
      {R"({"op":"submit","workload":"ar","options":{"threads":-1}})",
       "options.threads"},
      {R"({"op":"submit","workload":"ar","options":{"delta":-1}})",
       "options.delta"},
      {R"({"op":"submit","workload":"ar","options":{"alpha":1e20}})",
       "options.alpha"},
      {R"({"op":"submit","workload":"ar","options":{"threads":4294967297}})",
       "options.threads"},
      {R"({"op":"submit","workload":"ar","options":{"gamma":-4294967295}})",
       "options.gamma"},
      {R"({"op":"submit","workload":"ar","options":{"threads":2.5}})",
       "options.threads"},
      {R"({"op":"submit","workload":"ar","priority":1e20})", "priority"},
      {R"({"op":"submit","workload":"ar","priority":0.5})", "priority"},
      // Every other key takes only its own JSON type: a string, a null or a
      // number where another type belongs is refused, never read as 0,
      // false or the default.
      {R"({"op":"submit","workload":"ar","options":{"ct":"50"}})",
       "options.ct"},
      {R"({"op":"submit","workload":"ar","options":{"rmax":null}})",
       "options.rmax"},
      {R"({"op":"submit","workload":"ar","options":{"delta":"20"}})",
       "options.delta"},
      {R"({"op":"submit","workload":"ar","options":{"certify":5}})",
       "options.certify"},
      {R"({"op":"submit","workload":"ar","options":{"est_memory_mb":"2"}})",
       "options.est_memory_mb"},
      {R"({"op":"submit","workload":"ar","detach":1})", "detach"},
      // So does every key outside a submit's options: a wrong type is never
      // read as "" or false, nor dropped in favour of another key.
      {R"({"op":5})", "op"},
      {R"({"op":"status","job":7})", "job"},
      {R"({"op":"result","job":"job-1","wait":"yes"})", "wait"},
      {R"({"op":"submit","workload":5})", "workload"},
      {R"({"op":"submit","workload":5,"graph_text":"task a\n"})", "workload"},
      {R"({"op":"submit","graph_text":["x"]})", "graph_text"},
  };
  for (const auto& [line, key] : bad_requests) {
    Request fresh;  // parse_request fills in only the fields a line names
    EXPECT_FALSE(parse_request(line, &fresh, &error, &code)) << line;
    EXPECT_EQ(code, "bad_request") << line;
    EXPECT_EQ(error.rfind(key, 0), 0u) << line << ": " << error;
  }
}

// The one-shot CLI and the daemon both turn a request into a job through
// resolve_job: the device starts at Rmax 576, Mmax 4096, Ct 100, takes the
// .tg file's device over that and the request's rmax/mmax/ct over both.
TEST(ServiceProtocol, ResolveJobLayersTheDeviceAndCarriesTheOptions) {
  SubmitRequest request;
  request.workload = "ar";
  request.ct = 50.0;
  request.delta = 20.0;
  request.alpha = 1;
  request.gamma = 2;
  request.time_limit_sec = 3.0;
  request.threads = 0;
  request.certify = "full";
  JobSpec spec = resolve_job(request, 3, 9);
  EXPECT_EQ(spec.source, "ar");
  EXPECT_EQ(spec.device.name, "cli-device");
  EXPECT_DOUBLE_EQ(spec.device.resource_capacity, 576.0);
  EXPECT_DOUBLE_EQ(spec.device.memory_capacity, 4096.0);
  EXPECT_DOUBLE_EQ(spec.device.reconfig_time_ns, 50.0);
  EXPECT_DOUBLE_EQ(spec.options.budget.delta, 20.0);
  EXPECT_EQ(spec.options.alpha, 1);
  EXPECT_EQ(spec.options.gamma, 2);
  EXPECT_EQ(spec.options.max_partitions, 9);
  EXPECT_DOUBLE_EQ(spec.options.budget.solver.time_limit_sec, 3.0);
  EXPECT_EQ(spec.options.budget.solver.num_threads, 3);  // threads 0
  EXPECT_EQ(spec.options.budget.solver.certify, milp::CertifyMode::kFull);
  EXPECT_FALSE(spec.options.budget.deadline.valid());

  request.workload.clear();
  request.graph_text = "graph filedemo\ndevice board 200 64 40\ntask a 8 0\n"
                       "point a fast 90 120\n";
  request.mmax = 32.0;
  request.ct.reset();
  request.threads = 2;
  request.deadline_sec = 30.0;
  spec = resolve_job(request, 3, 9);
  EXPECT_EQ(spec.source, "filedemo");
  EXPECT_DOUBLE_EQ(spec.device.resource_capacity, 200.0);
  EXPECT_DOUBLE_EQ(spec.device.memory_capacity, 32.0);
  EXPECT_DOUBLE_EQ(spec.device.reconfig_time_ns, 40.0);
  EXPECT_EQ(spec.options.budget.solver.num_threads, 2);

  // The deadline starts counting, and the cancel token is attached, only
  // when the job starts.
  EXPECT_FALSE(spec.options.budget.deadline.valid());
  const milp::CancelToken cancel = milp::CancelToken::create();
  const core::PartitionerOptions started = start_options(spec, cancel);
  EXPECT_TRUE(started.budget.deadline.valid());
  EXPECT_LE(started.budget.deadline.remaining_sec(), 30.0);
  cancel.request_cancel();
  EXPECT_TRUE(started.budget.solver.cancel.cancelled());

  request.workload = "nope";
  request.graph_text.clear();
  EXPECT_THROW((void)resolve_job(request, 3, 9), Error);
}

// The submit line a client sends is fixed byte for byte: the daemon, the
// perfbench load generator and older clients all speak it.
TEST(ServiceProtocol, SerializedSubmitIsStable) {
  Request request;
  request.op = "submit";
  request.submit.workload = "ar";
  EXPECT_EQ(serialize_request(request),
            R"({"op": "submit","workload": "ar","options": {"delta": 0,)"
            R"("alpha": 0,"gamma": 1,"time_limit_sec": 10,"deadline_sec": 0,)"
            R"("threads": 1,"certify": "off"}})");
  request.submit.priority = 3;
  request.submit.detach = true;
  request.submit.rmax = 200.0;
  request.submit.mmax = 64.0;
  request.submit.ct = 1e7;
  request.submit.delta = 20.5;
  request.submit.alpha = 2;
  request.submit.gamma = 0;
  request.submit.time_limit_sec = 2.5;
  request.submit.deadline_sec = 9.0;
  request.submit.threads = 0;
  request.submit.certify = "full";
  request.submit.est_memory_mb = 64.0;
  EXPECT_EQ(serialize_request(request),
            R"({"op": "submit","workload": "ar","priority": 3,"detach": true,)"
            R"("options": {"rmax": 200,"mmax": 64,"ct": 10000000,)"
            R"("delta": 20.5,"alpha": 2,"gamma": 0,"time_limit_sec": 2.5,)"
            R"("deadline_sec": 9,"threads": 0,"certify": "full",)"
            R"("est_memory_mb": 64}})");
}

TEST(ServiceProtocol, ErrorResponseIsWellFormed) {
  const std::string line = error_response("submit", "queue_full", "try later");
  const json::Value response = parse_ok(line);
  EXPECT_FALSE(response.member_bool("ok", true));
  EXPECT_EQ(response.member_string("op"), "submit");
  EXPECT_EQ(error_code(response), "queue_full");
}

// --- job queue -------------------------------------------------------------

std::shared_ptr<Job> make_job(double est_memory_mb = 1.0, int priority = 0) {
  auto job = std::make_shared<Job>();
  job->spec.source = "test";
  job->spec.graph = workloads::ar_filter_task_graph();
  job->est_memory_mb = est_memory_mb;
  job->priority = priority;
  return job;
}

TEST(ServiceJobQueue, RejectsBeyondQueueDepth) {
  JobQueue queue({.max_queue_depth = 2, .max_est_memory_mb = 1000.0});
  EXPECT_TRUE(queue.submit(make_job()).ok);
  EXPECT_TRUE(queue.submit(make_job()).ok);
  const JobQueue::Admit third = queue.submit(make_job());
  EXPECT_FALSE(third.ok);
  EXPECT_EQ(third.code, "queue_full");
  EXPECT_FALSE(third.message.empty());
  EXPECT_EQ(queue.queue_depth(), 2);
}

TEST(ServiceJobQueue, RejectsBeyondMemoryLimitAndReleasesOnFinish) {
  JobQueue queue({.max_queue_depth = 16, .max_est_memory_mb = 100.0});
  EXPECT_TRUE(queue.submit(make_job(60.0)).ok);
  const JobQueue::Admit over = queue.submit(make_job(60.0));
  EXPECT_FALSE(over.ok);
  EXPECT_EQ(over.code, "memory_limit");
  EXPECT_DOUBLE_EQ(queue.est_memory_in_use_mb(), 60.0);

  // Finishing the admitted job releases its budget for the next submit.
  const std::shared_ptr<Job> job = queue.pop(1);
  ASSERT_NE(job, nullptr);
  queue.finish(job, JobState::kDone, JobResult{});
  EXPECT_DOUBLE_EQ(queue.est_memory_in_use_mb(), 0.0);
  EXPECT_TRUE(queue.submit(make_job(60.0)).ok);
}

TEST(ServiceJobQueue, PopsByPriorityThenSubmissionOrder) {
  JobQueue queue({});
  const std::string low = queue.submit(make_job(1.0, 0)).name;
  const std::string high_a = queue.submit(make_job(1.0, 5)).name;
  const std::string mid = queue.submit(make_job(1.0, 1)).name;
  const std::string high_b = queue.submit(make_job(1.0, 5)).name;

  EXPECT_EQ(queue.pop(1)->name, high_a);
  EXPECT_EQ(queue.pop(2)->name, high_b);
  EXPECT_EQ(queue.pop(3)->name, mid);
  EXPECT_EQ(queue.pop(4)->name, low);
}

TEST(ServiceJobQueue, CancelQueuedIsTerminalAndTripsToken) {
  JobQueue queue({});
  auto job = make_job();
  const std::string name = queue.submit(job).name;
  EXPECT_EQ(queue.cancel(name), JobQueue::CancelOutcome::kCancelledQueued);
  EXPECT_TRUE(job->cancel.cancelled());
  EXPECT_EQ(queue.queue_depth(), 0);
  JobInfo info;
  ASSERT_TRUE(queue.lookup(name, &info));
  EXPECT_EQ(info.state, JobState::kCancelled);
  EXPECT_EQ(info.exit_code(), 5);
  EXPECT_EQ(queue.cancel(name), JobQueue::CancelOutcome::kAlreadyTerminal);
  EXPECT_EQ(queue.cancel("job-404"), JobQueue::CancelOutcome::kUnknownJob);
}

TEST(ServiceJobQueue, CancelRunningTripsTokenOnly) {
  JobQueue queue({});
  auto job = make_job();
  const std::string name = queue.submit(job).name;
  ASSERT_EQ(queue.pop(7), job);
  EXPECT_EQ(queue.cancel(name), JobQueue::CancelOutcome::kRequestedRunning);
  EXPECT_TRUE(job->cancel.cancelled());
  JobInfo info;
  ASSERT_TRUE(queue.lookup(name, &info));
  EXPECT_EQ(info.state, JobState::kRunning);
  EXPECT_EQ(info.correlation, 7u);

  queue.finish(job, JobState::kCancelled, JobResult{});
  ASSERT_TRUE(queue.lookup(name, &info));
  EXPECT_EQ(info.state, JobState::kCancelled);
}

TEST(ServiceJobQueue, WaitTerminalBlocksUntilFinish) {
  JobQueue queue({});
  auto job = make_job();
  const std::string name = queue.submit(job).name;
  std::thread finisher([&] {
    const std::shared_ptr<Job> popped = queue.pop(1);
    auto report = std::make_shared<core::PartitionerReport>();
    report->feasible = true;
    JobResult result;
    result.report = report;
    queue.finish(popped, JobState::kDone, result);
  });
  JobInfo info;
  ASSERT_TRUE(queue.wait_terminal(name, &info));
  EXPECT_EQ(info.state, JobState::kDone);
  ASSERT_NE(info.result.report, nullptr);
  EXPECT_TRUE(info.result.report->feasible);
  EXPECT_EQ(info.exit_code(), 0);
  finisher.join();
  EXPECT_FALSE(queue.wait_terminal("job-404", nullptr));
}

TEST(ServiceJobQueue, MemoryEstimateGrowsWithGraphAndPartitions) {
  const graph::TaskGraph ar = workloads::ar_filter_task_graph();
  const graph::TaskGraph dct = workloads::dct_task_graph();
  EXPECT_GT(estimate_job_memory_mb(ar, 8), 0.0);
  EXPECT_LT(estimate_job_memory_mb(ar, 8), estimate_job_memory_mb(ar, 64));
  EXPECT_LT(estimate_job_memory_mb(ar, 64), estimate_job_memory_mb(dct, 64));
}

// --- server end to end -----------------------------------------------------

/// Runs one daemon on a socket inside a fresh temp dir for the lifetime of a
/// test, with serve() on a background thread.
class ServiceTest : public ::testing::Test {
 protected:
  void start(int workers, int queue_depth = 16,
             double memory_mb = 4096.0, bool artifacts = true) {
    // The daemon runs at info level (run_serve does the same): per-job JSONL
    // logs are made of the workers' info-level records.
    if (server_ == nullptr) previous_log_level_ = log_level();
    set_log_level(LogLevel::kInfo);
    char tmpl[] = "/tmp/sparcs_service_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    ServerOptions options;
    options.socket_path = dir_ + "/solve.sock";
    options.num_workers = workers;
    options.max_queue_depth = queue_depth;
    options.max_est_memory_mb = memory_mb;
    if (artifacts) options.artifact_dir = dir_ + "/artifacts";
    server_ = std::make_unique<Server>(std::move(options));
    serve_thread_ = std::thread([this] { serve_code_ = server_->serve(); });
    while (!server_->listening()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  void TearDown() override {
    stop();
    set_log_level(previous_log_level_);
  }

  /// Shuts the daemon down and removes its temp dir; start() may follow.
  void stop() {
    if (server_ != nullptr && serve_thread_.joinable()) {
      server_->request_shutdown();
      serve_thread_.join();
    }
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
    dir_.clear();
  }

  [[nodiscard]] std::string socket_path() const { return dir_ + "/solve.sock"; }

  [[nodiscard]] Request submit_workload(const std::string& workload) const {
    Request request;
    request.op = "submit";
    request.submit.workload = workload;
    return request;
  }

  std::string dir_;
  std::unique_ptr<Server> server_;
  std::thread serve_thread_;
  int serve_code_ = -1;
  LogLevel previous_log_level_ = LogLevel::kWarning;
};

TEST_F(ServiceTest, ServesTwoConcurrentClientsEndToEnd) {
  start(/*workers=*/2);
  struct Outcome {
    bool ok = false;
    int exit_code = -1;
    std::uint64_t correlation = 0;
    std::string report_path;
    json::Value response;  ///< the terminal result line
  };
  Outcome outcomes[2];
  const char* workloads[2] = {"ar", "dct"};
  std::vector<std::thread> clients;
  for (int i = 0; i < 2; ++i) {
    clients.emplace_back([&, i] {
      Client client(socket_path());
      const json::Value admitted =
          parse_ok(client.call(submit_workload(workloads[i])));
      if (!admitted.member_bool("ok")) return;
      Request result;
      result.op = "result";
      result.job = admitted.member_string("job");
      result.wait = true;
      const json::Value done = parse_ok(client.call(result));
      outcomes[i].ok = done.member_bool("ok");
      outcomes[i].exit_code =
          static_cast<int>(done.member_int("exit_code", -1));
      outcomes[i].correlation =
          static_cast<std::uint64_t>(done.member_int("corr"));
      outcomes[i].report_path = done.member_string("report_path");
      outcomes[i].response = done;
    });
  }
  for (std::thread& t : clients) t.join();

  for (const Outcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok);
    EXPECT_EQ(outcome.exit_code, 0);
    EXPECT_NE(outcome.correlation, 0u);
    // The landed report is a complete, valid PartitionerReport document.
    ASSERT_FALSE(outcome.report_path.empty());
    std::ifstream report(outcome.report_path);
    ASSERT_TRUE(report.good());
    std::ostringstream text;
    text << report.rdbuf();
    EXPECT_TRUE(is_valid_json(text.str()));
    // The job summary restates its embedded report, field for field.
    const json::Value& summary = outcome.response;
    const json::Value* embedded = summary.find("report");
    ASSERT_NE(embedded, nullptr);
    EXPECT_TRUE(summary.member_bool("feasible"));
    EXPECT_EQ(summary.member_bool("feasible"),
              embedded->member_bool("feasible"));
    EXPECT_EQ(summary.member_bool("degraded", true),
              embedded->member_bool("degraded", false));
    EXPECT_EQ(summary.member_double("latency_ns", -1.0),
              embedded->member_double("achieved_latency_ns", -2.0));
    EXPECT_EQ(summary.member_int("num_partitions", -1),
              embedded->member_int("best_num_partitions", -2));
    EXPECT_EQ(summary.member_int("ilp_solves", -1),
              embedded->member_int("ilp_solves", -2));
  }
  // Concurrent jobs are distinguishable in every artifact stream.
  EXPECT_NE(outcomes[0].correlation, outcomes[1].correlation);
}

TEST_F(ServiceTest, RejectsOverLimitSubmissionsWithStructuredReason) {
  // workers=0: nothing drains the queue, so admission is deterministic.
  start(/*workers=*/0, /*queue_depth=*/1, /*memory_mb=*/100.0);
  Client client(socket_path());

  Request oversized = submit_workload("ar");
  oversized.submit.est_memory_mb = 500.0;
  const json::Value memory_reject = parse_ok(client.call(oversized));
  EXPECT_FALSE(memory_reject.member_bool("ok"));
  EXPECT_EQ(error_code(memory_reject), "memory_limit");

  EXPECT_TRUE(parse_ok(client.call(submit_workload("ar"))).member_bool("ok"));
  const json::Value depth_reject = parse_ok(client.call(submit_workload("ar")));
  EXPECT_FALSE(depth_reject.member_bool("ok"));
  EXPECT_EQ(error_code(depth_reject), "queue_full");
  EXPECT_EQ(depth_reject.member_int("queue_depth"), 1);
}

TEST_F(ServiceTest, StatusResultCancelAndListCoverQueuedJobs) {
  start(/*workers=*/0);
  Client client(socket_path());
  const json::Value admitted = parse_ok(client.call(submit_workload("ar")));
  const std::string job = admitted.member_string("job");

  Request status;
  status.op = "status";
  status.job = job;
  json::Value response = parse_ok(client.call(status));
  EXPECT_EQ(response.member_string("state"), "queued");

  // result without wait on a live job is an explicit error, not a hang.
  Request result;
  result.op = "result";
  result.job = job;
  response = parse_ok(client.call(result));
  EXPECT_FALSE(response.member_bool("ok"));
  EXPECT_EQ(error_code(response), "not_finished");

  Request list;
  list.op = "list";
  response = parse_ok(client.call(list));
  EXPECT_TRUE(response.member_bool("ok"));
  EXPECT_EQ(response.member_int("queue_depth"), 1);
  const json::Value* jobs = response.find("jobs");
  ASSERT_NE(jobs, nullptr);
  ASSERT_EQ(jobs->array().size(), 1u);
  EXPECT_EQ(jobs->array()[0].member_string("job"), job);

  Request cancel;
  cancel.op = "cancel";
  cancel.job = job;
  response = parse_ok(client.call(cancel));
  EXPECT_TRUE(response.member_bool("ok"));
  EXPECT_EQ(response.member_string("state"), "cancelled");

  // A cancelled-while-queued job reports the preemption exit code.
  result.wait = true;
  response = parse_ok(client.call(result));
  EXPECT_TRUE(response.member_bool("ok"));
  EXPECT_EQ(response.member_int("exit_code"), 5);

  status.job = "job-404";
  response = parse_ok(client.call(status));
  EXPECT_EQ(error_code(response), "unknown_job");
}

TEST_F(ServiceTest, ClientDisconnectCancelsOwnedJob) {
  start(/*workers=*/0);
  std::string job;
  {
    Client submitter(socket_path());
    job = parse_ok(submitter.call(submit_workload("ar")))
              .member_string("job");
    ASSERT_FALSE(job.empty());
  }  // connection closes with the job still queued

  // The disconnect handler runs asynchronously; the job must become
  // cancelled, not merely leave the queue.
  Client watcher(socket_path());
  Request status;
  status.op = "status";
  status.job = job;
  std::string state;
  for (int i = 0; i < 500; ++i) {
    state = parse_ok(watcher.call(status)).member_string("state");
    if (state == "cancelled") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(state, "cancelled");
}

TEST_F(ServiceTest, DetachedJobSurvivesDisconnect) {
  start(/*workers=*/0);
  std::string job;
  {
    Client submitter(socket_path());
    Request request = submit_workload("ar");
    request.submit.detach = true;
    job = parse_ok(submitter.call(request)).member_string("job");
  }
  Client watcher(socket_path());
  Request status;
  status.op = "status";
  status.job = job;
  // Give the disconnect handler time to (wrongly) cancel before checking.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(parse_ok(watcher.call(status)).member_string("state"), "queued");
}

TEST_F(ServiceTest, MalformedLinesGetErrorResponsesNotDisconnects) {
  start(/*workers=*/0);
  Client client(socket_path());
  json::Value response = parse_ok(client.call_raw("this is not json"));
  EXPECT_FALSE(response.member_bool("ok"));
  EXPECT_EQ(error_code(response), "parse_error");
  response = parse_ok(client.call_raw(R"({"op":"submit"})"));
  EXPECT_EQ(error_code(response), "parse_error");
  // The connection is still usable afterwards.
  EXPECT_TRUE(parse_ok(client.call(submit_workload("ar"))).member_bool("ok"));
}

TEST_F(ServiceTest, SubmitWithInlineGraphTextAndEmbeddedDevice) {
  start(/*workers=*/1);
  const graph::TaskGraph graph = workloads::ar_filter_task_graph();
  Request request;
  request.op = "submit";
  request.submit.graph_text = io::to_task_graph_string(graph);
  request.submit.rmax = 200.0;
  request.submit.mmax = 64.0;
  request.submit.ct = 50.0;

  Client client(socket_path());
  const json::Value admitted = parse_ok(client.call(request));
  ASSERT_TRUE(admitted.member_bool("ok"));
  Request result;
  result.op = "result";
  result.job = admitted.member_string("job");
  result.wait = true;
  const json::Value done = parse_ok(client.call(result));
  EXPECT_TRUE(done.member_bool("ok"));
  EXPECT_EQ(done.member_string("state"), "done");
  EXPECT_TRUE(done.member_bool("feasible"));
}

TEST_F(ServiceTest, MalformedGraphTextIsRejectedAtSubmitTime) {
  start(/*workers=*/0);
  Request request;
  request.op = "submit";
  request.submit.graph_text = "task bad syntax here\n";
  Client client(socket_path());
  const json::Value response = parse_ok(client.call(request));
  EXPECT_FALSE(response.member_bool("ok"));
  EXPECT_EQ(error_code(response), "bad_request");
  // The message is the parser's line error alone, not a precondition
  // failure naming a source file.
  request.submit.graph_text = "x";
  const json::Value unknown = parse_ok(client.call(request));
  EXPECT_EQ(error_code(unknown), "bad_request");
  const json::Value* error = unknown.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->member_string("message"), "line 1: unknown directive 'x'");
}

TEST_F(ServiceTest, NegativeAlphaOrGammaIsRejectedAtSubmitTime) {
  start(/*workers=*/0);
  Client client(socket_path());
  for (const bool alpha : {true, false}) {
    Request request = submit_workload("ar");
    (alpha ? request.submit.alpha : request.submit.gamma) = -1;
    const json::Value response = parse_ok(client.call(request));
    EXPECT_FALSE(response.member_bool("ok"));
    EXPECT_EQ(error_code(response), "bad_request");
    const json::Value* error = response.find("error");
    ASSERT_NE(error, nullptr);
    EXPECT_NE(error->member_string("message").find(alpha ? "alpha" : "gamma"),
              std::string::npos);
  }
  Request list;
  list.op = "list";
  const json::Value response = parse_ok(client.call(list));
  const json::Value* jobs = response.find("jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_TRUE(jobs->array().empty());
}

// A Ct that overflows MaxLatency(N) is a bad_request at submit time, not a
// job that is accepted and then fails.
TEST_F(ServiceTest, LatencyBoundOverflowIsRejectedAtSubmitTime) {
  start(/*workers=*/0);
  Client client(socket_path());
  Request request = submit_workload("ar");
  request.submit.rmax = 200.0;
  request.submit.mmax = 64.0;
  request.submit.ct = 1e308;
  const json::Value response = parse_ok(client.call(request));
  EXPECT_FALSE(response.member_bool("ok"));
  EXPECT_EQ(error_code(response), "bad_request");
  const json::Value* error = response.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->member_string("message"),
            "options.ct 1e+308 overflows the latency bound MaxLatency(N=6)");
  Request list;
  list.op = "list";
  const json::Value listed = parse_ok(client.call(list));
  const json::Value* jobs = listed.find("jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_TRUE(jobs->array().empty());
}

TEST_F(ServiceTest, PartitionCountOverflowIsRejectedAtSubmitTime) {
  start(/*workers=*/0);
  Client client(socket_path());
  Request request = submit_workload("ar");
  request.submit.rmax = 1e-300;
  const json::Value response = parse_ok(client.call(request));
  EXPECT_FALSE(response.member_bool("ok"));
  EXPECT_EQ(error_code(response), "bad_request");
  const json::Value* error = response.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->member_string("message"),
            "options.rmax 1e-300 puts the partition count MaxAreaPartitions "
            "past int range");
  Request list;
  list.op = "list";
  const json::Value listed = parse_ok(client.call(list));
  const json::Value* jobs = listed.find("jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_TRUE(jobs->array().empty());
}

// A device override out of its range and a task whose memory coefficient
// overflows are bad_requests at submit time, not jobs that are accepted and
// then fail.
TEST_F(ServiceTest, DeviceAndMemoryOverflowAreRejectedAtSubmitTime) {
  start(/*workers=*/0);
  Client client(socket_path());
  struct Case {
    Request request;
    const char* message;
  };
  Case cases[] = {{submit_workload("ar"),
                   "options.rmax 0 must be finite and > 0"},
                  {submit_workload("ar"),
                   "options.mmax -1 must be finite and non-negative"},
                  {submit_workload("ar"),
                   "options.ct -5 must be finite and non-negative"},
                  {submit_workload("ar"),
                   "task 'a': env_in 1.7e+308 + env_out 1.7e+308 overflows "
                   "its memory coefficient"}};
  cases[0].request.submit.rmax = 0.0;
  cases[1].request.submit.mmax = -1.0;
  cases[2].request.submit.ct = -5.0;
  cases[3].request.submit.workload.clear();
  cases[3].request.submit.graph_text =
      "graph envy\ntask a 1.7e308 1.7e308\npoint a fast 90 10\n";
  for (const Case& c : cases) {
    const json::Value response = parse_ok(client.call(c.request));
    EXPECT_FALSE(response.member_bool("ok")) << c.message;
    EXPECT_EQ(error_code(response), "bad_request") << c.message;
    const json::Value* error = response.find("error");
    ASSERT_NE(error, nullptr) << c.message;
    EXPECT_EQ(error->member_string("message"), c.message);
  }
  Request list;
  list.op = "list";
  const json::Value listed = parse_ok(client.call(list));
  const json::Value* jobs = listed.find("jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_TRUE(jobs->array().empty());
}

TEST_F(ServiceTest, ShutdownCancelsQueuedJobsAndExitsCleanly) {
  // workers=0: every job is still queued when shutdown arrives.
  start(/*workers=*/0);
  Client client(socket_path());
  std::vector<std::string> jobs;
  for (int i = 0; i < 2; ++i) {
    Request request = submit_workload("dct");
    request.submit.detach = true;
    const json::Value admitted = parse_ok(client.call(request));
    ASSERT_TRUE(admitted.member_bool("ok"));
    jobs.push_back(admitted.member_string("job"));
  }
  Request shutdown;
  shutdown.op = "shutdown";
  EXPECT_TRUE(parse_ok(client.call(shutdown)).member_bool("ok"));
  serve_thread_.join();
  EXPECT_EQ(serve_code_, 0);

  for (const std::string& job : jobs) {
    JobInfo info;
    ASSERT_TRUE(server_->queue().lookup(job, &info));
    EXPECT_EQ(info.state, JobState::kCancelled) << job;
    EXPECT_EQ(info.exit_code(), 5) << job;
  }
  // The socket file is unlinked on the way out.
  EXPECT_FALSE(std::filesystem::exists(socket_path()));

  // Submissions after shutdown find no daemon at all.
  EXPECT_THROW(Client{socket_path()}, Error);
}

TEST_F(ServiceTest, ShutdownPreemptsRunningJobThroughTheCancelPath) {
  start(/*workers=*/1);
  // A long chain on a small device needs many partitions and a long sweep:
  // comfortably mid-solve when the shutdown lands, and cancellation unwinds
  // it through the same anytime path a deadline uses.
  Request request;
  request.op = "submit";
  request.submit.graph_text =
      io::to_task_graph_string(workloads::chain_task_graph(40));
  request.submit.rmax = 200.0;
  request.submit.mmax = 4096.0;
  request.submit.ct = 100.0;
  request.submit.detach = true;

  Client client(socket_path());
  const json::Value admitted = parse_ok(client.call(request));
  ASSERT_TRUE(admitted.member_bool("ok"));
  const std::string job = admitted.member_string("job");

  Request status;
  status.op = "status";
  status.job = job;
  std::string state;
  for (int i = 0; i < 1000; ++i) {
    state = parse_ok(client.call(status)).member_string("state");
    if (state == "running") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(state, "running");

  Request shutdown;
  shutdown.op = "shutdown";
  EXPECT_TRUE(parse_ok(client.call(shutdown)).member_bool("ok"));
  serve_thread_.join();
  EXPECT_EQ(serve_code_, 0);

  JobInfo info;
  ASSERT_TRUE(server_->queue().lookup(job, &info));
  EXPECT_EQ(info.state, JobState::kCancelled);
  EXPECT_TRUE(info.cancel_requested);
}

TEST_F(ServiceTest, PerJobArtifactsLandUnderTheArtifactDir) {
  start(/*workers=*/1);
  // At debug level every searched probe logs one "probe N=" line; the job's
  // log must hold all of them, under the job's correlation id.
  set_log_level(LogLevel::kDebug);
  Client client(socket_path());
  Request submit = submit_workload("ar");
  submit.submit.rmax = 200.0;
  submit.submit.ct = 50.0;
  submit.submit.delta = 20.0;
  const json::Value admitted = parse_ok(client.call(submit));
  Request result;
  result.op = "result";
  result.job = admitted.member_string("job");
  result.wait = true;
  const json::Value done = parse_ok(client.call(result));
  ASSERT_TRUE(done.member_bool("ok"));

  const std::string base = dir_ + "/artifacts/" + result.job;
  EXPECT_TRUE(std::filesystem::exists(base + ".report.json"));
  EXPECT_TRUE(std::filesystem::exists(base + ".logs.jsonl"));
  // The per-job log stream carries only this job's correlation id.
  std::ifstream logs(base + ".logs.jsonl");
  std::string line;
  int records = 0;
  std::map<std::int64_t, int> probe_records;  // by partition count N
  const std::int64_t corr = done.member_int("corr");
  while (std::getline(logs, line)) {
    if (line.empty()) continue;
    ++records;
    const json::Value record = parse_ok(line);
    EXPECT_EQ(record.member_int("corr"), corr) << line;
    const std::string msg = record.member_string("msg");
    if (msg.rfind("probe N=", 0) == 0) {
      ++probe_records[std::stoll(msg.substr(std::string("probe N=").size()))];
    }
  }
  EXPECT_GT(records, 0);
  // At least one probe record per row of the job's trace.
  const json::Value* report = done.find("report");
  ASSERT_NE(report, nullptr);
  const json::Value* trace = report->find("trace");
  ASSERT_NE(trace, nullptr);
  ASSERT_GE(trace->array().size(), 2u);
  std::map<std::int64_t, int> rows;
  for (const json::Value& row : trace->array()) ++rows[row.member_int("N")];
  for (const auto& [n, count] : rows) {
    EXPECT_GE(probe_records[n], count) << "N=" << n;
  }
}

/// A response line with what differs between runs and hosts masked: the
/// timings, the correlation id, the daemon's temp dir and a failure's text
/// (it names a source location).
std::string masked(std::string line, const std::string& dir) {
  static const std::regex volatile_field(
      R"re("(queued_sec|run_sec|corr)": [^,}]+)re");
  static const std::regex error_text(
      R"re("error_message": "(\\.|[^"\\])*")re");
  line = std::regex_replace(line, volatile_field, "\"$1\": X");
  line = std::regex_replace(line, error_text, "\"error_message\": \"X\"");
  for (std::size_t at; (at = line.find(dir)) != std::string::npos;) {
    line.replace(at, dir.size(), "DIR");
  }
  return line;
}

// The status, result and list lines of a done, a failed and a
// cancelled-while-queued job are fixed byte for byte (times masked): the
// result embeds the job's report exactly as its landed artifact holds it, and
// a job without a report renders the fields of one that found nothing.
TEST_F(ServiceTest, JobResponsesKeepTheirBytes) {
  auto call = [&](Client& client, const std::string& op,
                  const std::string& job) {
    Request request;
    request.op = op;
    request.job = job;
    return client.call(request);
  };

  // No workers: the job is still queued when it is cancelled.
  start(/*workers=*/0);
  {
    Client client(socket_path());
    const std::string job =
        parse_ok(client.call(submit_workload("ar"))).member_string("job");
    ASSERT_EQ(parse_ok(call(client, "cancel", job)).member_string("state"),
              "cancelled");
    EXPECT_EQ(masked(call(client, "status", job), dir_),
              R"({"ok": true,"op": "status","job": "job-1","state": "cancelled","priority": 0,"detached": false,"source": "ar","est_memory_mb": 17.223048,"cancel_requested": true,"queued_sec": X,"run_sec": X,"exit_code": 5,"feasible": false,"degraded": false,"uncertified": false,"ilp_solves": 0})");
    EXPECT_EQ(masked(call(client, "result", job), dir_),
              R"({"ok": true,"op": "result","job": "job-1","state": "cancelled","priority": 0,"detached": false,"source": "ar","est_memory_mb": 17.223048,"cancel_requested": true,"queued_sec": X,"run_sec": X,"exit_code": 5,"feasible": false,"degraded": false,"uncertified": false,"ilp_solves": 0})");
    EXPECT_EQ(masked(call(client, "list", ""), dir_),
              R"({"ok": true,"op": "list","queue_depth": 0,"running": 0,"est_memory_in_use_mb": 0,"max_queue_depth": 16,"max_est_memory_mb": 4096,"jobs": [{"job": "job-1","state": "cancelled","priority": 0,"detached": false,"source": "ar","est_memory_mb": 17.223048,"cancel_requested": true,"queued_sec": X,"run_sec": X,"exit_code": 5,"feasible": false,"degraded": false,"uncertified": false,"ilp_solves": 0}]})");
  }
  stop();

  // The AR filter of Table 1 converges; the second job starts at N=2 on a
  // device whose area cut N * Rmax overflows a double, and the formulation
  // refuses the model, so that job fails.
  start(/*workers=*/1);
  Client client(socket_path());
  std::string jobs[2];
  for (int i = 0; i < 2; ++i) {
    Request submit = submit_workload("ar");
    submit.submit.rmax = 200.0;
    submit.submit.mmax = 64.0;
    submit.submit.ct = 50.0;
    submit.submit.delta = 20.0;
    if (i == 1) {
      submit.submit.rmax = 1e308;
      submit.submit.alpha = 1;
    }
    jobs[i] = parse_ok(client.call(submit)).member_string("job");
    Request wait;
    wait.op = "result";
    wait.job = jobs[i];
    wait.wait = true;
    (void)client.call(wait);
  }
  const json::Value failed = parse_ok(call(client, "status", jobs[1]));
  const json::Value* message = failed.find("error_message");
  ASSERT_NE(message, nullptr);
  EXPECT_NE(message->as_string().find("non-finite rhs"), std::string::npos);

  // The done job's result ends in its report, byte for byte the landed one.
  std::string done_result = call(client, "result", jobs[0]);
  std::ifstream landed(dir_ + "/artifacts/" + jobs[0] + ".report.json");
  std::ostringstream report;
  report << landed.rdbuf();
  ASSERT_FALSE(report.str().empty());
  const std::string report_member =
      ",\"report\": " + report.str().substr(0, report.str().size() - 1) + "}";
  ASSERT_GT(done_result.size(), report_member.size());
  ASSERT_EQ(done_result.substr(done_result.size() - report_member.size()),
            report_member);
  done_result.resize(done_result.size() - report_member.size());
  done_result += "}";

  EXPECT_EQ(masked(call(client, "status", jobs[0]), dir_),
            R"({"ok": true,"op": "status","job": "job-1","state": "done","priority": 0,"detached": false,"source": "ar","est_memory_mb": 17.223048,"corr": X,"queued_sec": X,"run_sec": X,"exit_code": 0,"feasible": true,"degraded": false,"uncertified": false,"latency_ns": 1120,"num_partitions": 4,"ilp_solves": 10,"report_path": "DIR/artifacts/job-1.report.json"})");
  EXPECT_EQ(masked(done_result, dir_),
            R"({"ok": true,"op": "result","job": "job-1","state": "done","priority": 0,"detached": false,"source": "ar","est_memory_mb": 17.223048,"corr": X,"queued_sec": X,"run_sec": X,"exit_code": 0,"feasible": true,"degraded": false,"uncertified": false,"latency_ns": 1120,"num_partitions": 4,"ilp_solves": 10,"report_path": "DIR/artifacts/job-1.report.json"})");
  EXPECT_EQ(masked(call(client, "status", jobs[1]), dir_),
            R"({"ok": true,"op": "status","job": "job-2","state": "failed","priority": 0,"detached": false,"source": "ar","est_memory_mb": 17.223048,"corr": X,"queued_sec": X,"run_sec": X,"exit_code": 4,"feasible": false,"degraded": false,"uncertified": false,"ilp_solves": 0,"error_message": "X"})");
  EXPECT_EQ(masked(call(client, "result", jobs[1]), dir_),
            R"({"ok": true,"op": "result","job": "job-2","state": "failed","priority": 0,"detached": false,"source": "ar","est_memory_mb": 17.223048,"corr": X,"queued_sec": X,"run_sec": X,"exit_code": 4,"feasible": false,"degraded": false,"uncertified": false,"ilp_solves": 0,"error_message": "X"})");
  EXPECT_EQ(masked(call(client, "list", ""), dir_),
            R"({"ok": true,"op": "list","queue_depth": 0,"running": 0,"est_memory_in_use_mb": 0,"max_queue_depth": 16,"max_est_memory_mb": 4096,"jobs": [{"job": "job-1","state": "done","priority": 0,"detached": false,"source": "ar","est_memory_mb": 17.223048,"corr": X,"queued_sec": X,"run_sec": X,"exit_code": 0,"feasible": true,"degraded": false,"uncertified": false,"latency_ns": 1120,"num_partitions": 4,"ilp_solves": 10,"report_path": "DIR/artifacts/job-1.report.json"},{"job": "job-2","state": "failed","priority": 0,"detached": false,"source": "ar","est_memory_mb": 17.223048,"corr": X,"queued_sec": X,"run_sec": X,"exit_code": 4,"feasible": false,"degraded": false,"uncertified": false,"ilp_solves": 0,"error_message": "X"}]})");
}

}  // namespace
}  // namespace sparcs::service
