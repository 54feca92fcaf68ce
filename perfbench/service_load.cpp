// ar_service: a closed loop of two clients against an in-process solve
// daemon. Each client sends `submit`, then `result wait=true` on the same
// connection (what `sparcs-tp submit --wait` does) and only then its next
// job, so the loop measures round trips without building a queue.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "workloads/ar_filter.hpp"

namespace perfbench {
namespace {

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr int kServiceSetups = 25;
constexpr int kListRoundTrips = 200;
// The closed loop runs in segments of this length with the clients idle
// between them, so host-calibration slices can bracket every job.
constexpr double kSegmentSeconds = 2.0;

// Ct choices with the AR filter's Table-1 latency (Rmax=200, Mmax=64)
// recorded from the optimal reference; every job must land within delta.
constexpr std::pair<double, double> kCtRecordedNs[] = {
    {1.0, 924.0}, {50.0, 1120.0}, {500.0, 2650.0}, {1e7, 30001150.0}};

/// One daemon serving on a socket in the working directory. A relative path
/// keeps the name short whatever the checkout's location.
class Daemon {
 public:
  Daemon() : socket_path_("perfbench-" + std::to_string(::getpid()) + ".sock") {
    service::ServerOptions options;
    options.socket_path = socket_path_;
    options.num_workers = kWorkers;
    options.threads_per_job = 1;
    options.max_queue_depth = 64;
    server_ = std::make_unique<service::Server>(std::move(options));
    thread_ = std::thread([this] { exit_code_ = server_->serve(); });
    // Start-up takes about a millisecond; yielding rather than sleeping
    // notices the listening socket within microseconds.
    while (!server_->listening() && exit_code_ < 0) std::this_thread::yield();
    if (!server_->listening()) {
      thread_.join();
      throw Error("the solve daemon failed to start on " + socket_path_);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    server_->request_shutdown();
    thread_.join();
  }

  [[nodiscard]] const std::string& socket_path() const { return socket_path_; }

 private:
  std::string socket_path_;
  std::unique_ptr<service::Server> server_;
  std::atomic<int> exit_code_{-1};
  std::thread thread_;
};

/// One completed job as the client saw it.
struct JobRecord {
  int job_class = 0;
  int segment = 0;
  double rtt_ms = 0.0;
  double run_ms = 0.0;
  double queue_ms = 0.0;
  double latency_ns = 0.0;
  std::int64_t probes = 0;
  std::int64_t decided = 0;
  /// ilp_solves, nodes, conflicts and constraint visits: identical for every
  /// job of one class at threads = 1.
  std::vector<std::int64_t> signature;
};

struct ClientLog {
  std::vector<JobRecord> jobs;
  std::vector<std::string> errors;
  std::int64_t rejected = 0;
};

service::Request submit_request(const ArJobClass& job_class) {
  service::Request request;
  request.op = "submit";
  request.submit.workload = "ar";
  request.submit.rmax = kArRmax;
  request.submit.mmax = kArMmax;
  request.submit.ct = job_class.ct_ns;
  request.submit.delta = kArDelta;
  request.submit.threads = 1;
  request.submit.certify =
      job_class.certify == milp::CertifyMode::kFull ? "full" : "off";
  return request;
}

/// Decodes a `result` response into `record`; returns an error or "".
std::string decode_result(const std::string& line, JobRecord& record) {
  const json::ParseResult parsed = json::parse(line);
  if (!parsed.ok) return "unparsable result: " + parsed.error;
  const json::Value& v = parsed.value;
  if (!v.member_bool("ok")) return "result failed: " + line.substr(0, 200);
  if (v.member_string("state") != "done" || !v.member_bool("feasible") ||
      v.member_bool("degraded") || v.member_bool("uncertified")) {
    return "job ended " + v.member_string("state") + " (feasible=" +
           (v.member_bool("feasible") ? "1" : "0") + ")";
  }
  record.latency_ns = v.member_double("latency_ns");
  record.run_ms = v.member_double("run_sec") * 1e3;
  record.queue_ms = v.member_double("queued_sec") * 1e3;
  const json::Value* report = v.find("report");
  if (report == nullptr) return "result carries no report";
  const json::Value* trace = report->find("trace");
  if (trace != nullptr) {
    for (const json::Value& row : trace->array()) {
      ++record.probes;
      const std::string outcome = row.member_string("outcome");
      if (outcome == "feasible" || outcome == "infeasible") ++record.decided;
    }
  }
  const json::Value* stats = report->find("solver_stats");
  record.signature = {report->member_int("ilp_solves")};
  if (stats != nullptr) {
    for (const char* key : {"nodes_explored", "conflicts",
                            "propagated_constraints"}) {
      record.signature.push_back(stats->member_int(key));
    }
  }
  return "";
}

/// One client's share of one segment of the closed loop.
void client_loop(service::Client& client, Rng& rng, int index, int segment,
                 double seconds, std::atomic<int>& job_budget,
                 ClientLog& log) {
  const std::vector<ArJobClass> classes = ar_job_classes();
  Stopwatch clock;
  try {
    while (clock.seconds() < seconds && job_budget.fetch_sub(1) > 0) {
      JobRecord record;
      record.segment = segment;
      record.job_class = static_cast<int>(rng.index(classes.size()));
      Stopwatch rtt;
      const std::string admitted =
          client.call(submit_request(classes[static_cast<std::size_t>(
              record.job_class)]));
      const json::ParseResult parsed = json::parse(admitted);
      if (!parsed.ok || !parsed.value.member_bool("ok")) {
        ++log.rejected;
        log.errors.push_back("submit rejected: " + admitted.substr(0, 200));
        continue;
      }
      service::Request result;
      result.op = "result";
      result.job = parsed.value.member_string("job");
      result.wait = true;
      const std::string response = client.call(result);
      record.rtt_ms = rtt.milliseconds();
      const std::string error = decode_result(response, record);
      if (!error.empty()) {
        log.errors.push_back(result.job + ": " + error);
        continue;
      }
      log.jobs.push_back(std::move(record));
    }
  } catch (const std::exception& e) {
    log.errors.push_back(std::string("client ") + std::to_string(index) +
                         ": " + e.what());
  }
}

}  // namespace

std::vector<ArJobClass> ar_job_classes() {
  std::vector<ArJobClass> classes;
  for (const auto& [ct, recorded] : kCtRecordedNs) {
    for (const milp::CertifyMode certify :
         {milp::CertifyMode::kOff, milp::CertifyMode::kFull}) {
      classes.push_back({ct, certify, recorded});
    }
  }
  return classes;
}

SweepSpec ar_service_spec(const ArJobClass& job_class) {
  // Mirrors what the daemon's submit handler builds from submit_request().
  const service::SubmitRequest defaults;
  SweepSpec spec;
  spec.name = "ar_service";
  spec.graph = workloads::ar_filter_task_graph();
  spec.device =
      arch::custom("service-device", kArRmax, kArMmax, job_class.ct_ns);
  spec.options.alpha = defaults.alpha;
  spec.options.gamma = defaults.gamma;
  spec.options.max_partitions = service::ServerOptions{}.max_partitions;
  spec.options.budget.delta = kArDelta;
  spec.options.budget.solver.time_limit_sec = defaults.time_limit_sec;
  spec.options.budget.solver.num_threads = 1;
  spec.options.budget.solver.certify = job_class.certify;
  return spec;
}

ServiceFigures run_service_load(const ServiceLoadOptions& options,
                                Outcome& out) {
  ServiceFigures figures;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<service::Client>> clients;
  std::vector<double> setups;
  for (int i = 0; i < kServiceSetups; ++i) {
    clients.clear();
    daemon.reset();
    Stopwatch setup;
    daemon = std::make_unique<Daemon>();
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<service::Client>(daemon->socket_path()));
    }
    setups.push_back(setup.seconds());
  }
  figures.setup_s = median(setups);

  if (options.traced) {
    service::Request list;
    list.op = "list";
    std::vector<double> rtts;
    for (int i = 0; i < kListRoundTrips; ++i) {
      Stopwatch rtt;
      (void)clients.front()->call(list);
      rtts.push_back(rtt.milliseconds());
    }
    figures.list_rtt_ms = median(rtts);
  }

  std::atomic<int> job_budget{options.max_jobs > 0 ? options.max_jobs
                                                   : 1 << 30};
  std::vector<ClientLog> logs(kClients);
  std::vector<Rng> rngs;
  for (int c = 0; c < kClients; ++c) {
    rngs.emplace_back(options.seed * 0x9e3779b97f4a7c15ULL +
                      static_cast<std::uint64_t>(c));
  }
  HostCalibration host;
  for (int segment = 0;
       figures.elapsed_s < options.seconds && job_budget.load() > 0; ++segment) {
    const double seconds =
        std::min(kSegmentSeconds, options.seconds - figures.elapsed_s);
    Stopwatch elapsed;
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        const auto i = static_cast<std::size_t>(c);
        client_loop(*clients[i], rngs[i], c, segment, seconds, job_budget,
                    logs[i]);
      });
    }
    for (std::thread& t : threads) t.join();
    figures.elapsed_s += elapsed.seconds();
    host.measured(elapsed.seconds());
  }
  const std::vector<double> slowdowns = host.slowdowns();
  figures.slowdown = median(slowdowns);
  clients.clear();
  daemon.reset();

  const std::vector<ArJobClass> classes = ar_job_classes();
  std::map<int, std::vector<std::int64_t>> class_signature;
  for (const ClientLog& log : logs) {
    out.attempted += static_cast<std::int64_t>(log.jobs.size() + log.errors.size());
    figures.rejected += log.rejected;
    for (const std::string& error : log.errors) out.fail("ar_service: " + error);
    for (const JobRecord& job : log.jobs) {
      const double recorded =
          classes[static_cast<std::size_t>(job.job_class)].recorded_ns;
      if (std::abs(job.latency_ns - recorded) > kArDelta + 1e-9) {
        out.fail("ar_service: job latency " + std::to_string(job.latency_ns) +
                 " ns is not within delta of the recorded " +
                 std::to_string(recorded) + " ns");
        continue;
      }
      auto [it, inserted] =
          class_signature.emplace(job.job_class, job.signature);
      if (!inserted && it->second != job.signature) {
        out.fail("ar_service: node/conflict/visit counts drifted between "
                 "jobs of one class at threads=1");
        continue;
      }
      ++figures.completed;
      figures.job_slowdown.push_back(
          slowdowns[static_cast<std::size_t>(job.segment)]);
      figures.rtt_ms.push_back(job.rtt_ms);
      figures.run_ms.push_back(job.run_ms);
      figures.queue_ms.push_back(job.queue_ms);
      figures.overhead_ms.push_back(job.rtt_ms - job.queue_ms - job.run_ms);
      figures.probes += job.probes;
      figures.decided_probes += job.decided;
      figures.latency_ratio_sum += job.latency_ns / recorded;
    }
  }
  return figures;
}

}  // namespace perfbench
