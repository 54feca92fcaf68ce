// Tests for the run-owned observability pipeline (support/observer.hpp and
// support/telemetry.hpp): correlation ids, the live solve, sampler lifecycle
// and JSONL shape, search-tree recording and dump invariants, the JSON log
// stream, the solver's convergence timeline, and the isolation of concurrent
// runs that each own an observer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/device.hpp"
#include "core/partitioner.hpp"
#include "json_checker.hpp"
#include "milp/solver.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/observer.hpp"
#include "support/span.hpp"
#include "support/telemetry.hpp"
#include "workloads/ar_filter.hpp"

namespace sparcs {
namespace {

using sparcs::testing::is_valid_json;
using sparcs::testing::is_valid_json_lines;

/// An observer that samples into `sink`; interval samples effectively off.
Observer::Options sampled(std::ostream& sink) {
  Observer::Options options;
  options.telemetry = &sink;
  options.sample_interval_sec = 10.0;
  return options;
}

/// Sets the process-wide log level for one test and restores it after.
class LogLevelScope {
 public:
  explicit LogLevelScope(LogLevel level) : previous_(log_level()) {
    set_log_level(level);
  }
  ~LogLevelScope() { set_log_level(previous_); }

 private:
  LogLevel previous_;
};

// --- correlation ids -------------------------------------------------------

TEST(TelemetryTest, CorrelationIdsAreUniqueAndNonZero) {
  const std::uint64_t a = telemetry::next_correlation_id();
  const std::uint64_t b = telemetry::next_correlation_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(TelemetryTest, CorrelationScopeNestsAndRestores) {
  EXPECT_EQ(telemetry::current_correlation_id(), 0u);
  {
    telemetry::CorrelationScope outer(7);
    EXPECT_EQ(telemetry::current_correlation_id(), 7u);
    {
      telemetry::CorrelationScope inner(9);
      EXPECT_EQ(telemetry::current_correlation_id(), 9u);
    }
    EXPECT_EQ(telemetry::current_correlation_id(), 7u);
  }
  EXPECT_EQ(telemetry::current_correlation_id(), 0u);
}

TEST(TelemetryTest, DefaultCorrelationScopeAllocatesOnlyWhenObservedAndUnbound) {
  {
    // No observer: nothing is recorded, so no id is spent.
    const telemetry::CorrelationScope scope;
    EXPECT_EQ(scope.id(), 0u);
  }
  Observer observer({});
  const ObserverScope bind(&observer);
  {
    const telemetry::CorrelationScope fresh;
    EXPECT_NE(fresh.id(), 0u);
    EXPECT_EQ(telemetry::current_correlation_id(), fresh.id());
  }
  EXPECT_EQ(telemetry::current_correlation_id(), 0u);
  // A run that binds its own id (a service job) keeps it for its probes.
  const telemetry::CorrelationScope job(4242);
  const telemetry::CorrelationScope probe;
  EXPECT_EQ(probe.id(), 4242u);
}

// --- live solve ------------------------------------------------------------

TEST(TelemetryTest, SolveScopeInertWithoutObserver) {
  telemetry::SolveScope scope;
  EXPECT_EQ(scope.id(), 0u);
  EXPECT_EQ(scope.slot(), nullptr);
  EXPECT_EQ(telemetry::current_correlation_id(), 0u);
}

TEST(TelemetryTest, SolveScopeClaimsNoSlotUnlessTheRunIsSampled) {
  Observer observer({});
  const ObserverScope bind(&observer);
  const telemetry::SolveScope scope;
  EXPECT_NE(scope.id(), 0u);
  EXPECT_EQ(scope.slot(), nullptr);
}

TEST(TelemetryTest, SolveScopeClaimsAndReleasesTheRunsLiveSolve) {
  std::ostringstream sink;
  {
    Observer observer(sampled(sink));
    const ObserverScope bind(&observer);
    {
      telemetry::SolveScope scope;
      ASSERT_NE(scope.slot(), nullptr);
      EXPECT_NE(scope.id(), 0u);
      EXPECT_EQ(telemetry::current_correlation_id(), scope.id());
      EXPECT_EQ(scope.slot()->correlation.load(), scope.id());
      // The run has one live solve: a second concurrent scope gets none.
      const telemetry::SolveScope nested;
      EXPECT_EQ(nested.slot(), nullptr);
      scope.slot()->nodes.fetch_add(5);
    }
    EXPECT_EQ(telemetry::current_correlation_id(), 0u);
  }
  const std::string jsonl = sink.str();
  const std::size_t last = jsonl.rfind("{\"type\": \"final\"");
  ASSERT_NE(last, std::string::npos);
  EXPECT_NE(jsonl.find("\"solves_completed\": 1", last), std::string::npos);
}

TEST(TelemetryTest, SolveScopeReusesCallerCorrelation) {
  std::ostringstream sink;
  Observer observer(sampled(sink));
  const ObserverScope bind(&observer);
  telemetry::CorrelationScope outer(telemetry::next_correlation_id());
  const std::uint64_t outer_id = telemetry::current_correlation_id();
  telemetry::SolveScope scope;
  // A solve launched under an existing correlation id (a Reduce_Latency
  // probe) keeps it, so the probe's span and the solve's records join.
  EXPECT_EQ(scope.id(), outer_id);
}

// --- sampler ---------------------------------------------------------------

TEST(TelemetryTest, ObserverSamplesOnlyWithATelemetryStream) {
  Observer observer({});
  EXPECT_EQ(observer.sampler(), nullptr);
  EXPECT_EQ(observer.metrics(), nullptr);
  EXPECT_EQ(observer.spans(), nullptr);
  EXPECT_EQ(observer.tree(), nullptr);
  EXPECT_FALSE(observer.logs_json());
  // Publishing without a sampler is a no-op.
  const ObserverScope bind(&observer);
  telemetry::set_stage("phase1", 3);
}

TEST(TelemetryTest, SamplerEmitsWellFormedJsonl) {
  std::ostringstream sink;
  Observer observer(sampled(sink));
  {
    const ObserverScope bind(&observer);
    telemetry::set_stage("phase1", 3);
    telemetry::publish_best_latency(4000.0, 3);
    telemetry::publish_best_latency(3500.0, 4);
    observer.sampler()->sample("manual");
  }
  observer.sampler()->stop();

  const std::string jsonl = sink.str();
  EXPECT_TRUE(is_valid_json_lines(jsonl));
  EXPECT_NE(jsonl.find("\"type\": \"start\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\": \"sample\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\": \"convergence\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\": \"final\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"stage\": \"phase1\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"trigger\": \"stage\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"incumbent_latency_ns\": 3500"), std::string::npos);
  // Nothing is written once the sampler stopped.
  const std::size_t size = jsonl.size();
  observer.sampler()->sample("late");
  EXPECT_EQ(sink.str().size(), size);
}

TEST(TelemetryTest, SamplesEmbedMetricsWhenTheRunCollectsThem) {
  std::ostringstream with_sink, without_sink;
  Observer::Options options = sampled(with_sink);
  options.metrics = true;
  {
    Observer observer(options);
    observer.metrics()->counter("test.counter").add(3);
    observer.sampler()->sample("manual");
  }
  {
    Observer observer(sampled(without_sink));
    observer.sampler()->sample("manual");
  }
  EXPECT_NE(with_sink.str().find("\"test.counter\": 3"), std::string::npos);
  EXPECT_EQ(without_sink.str().find("\"metrics\""), std::string::npos);
}

TEST(TelemetryTest, SamplerReportsLiveSolves) {
  std::ostringstream sink;
  Observer observer(sampled(sink));
  {
    const ObserverScope bind(&observer);
    telemetry::SolveScope scope;
    ASSERT_NE(scope.slot(), nullptr);
    scope.slot()->nodes.store(42);
    scope.slot()->incumbent.store(123.0);
    scope.slot()->has_incumbent.store(true);
    observer.sampler()->sample("manual");
  }
  observer.sampler()->stop();
  const std::string jsonl = sink.str();
  EXPECT_TRUE(is_valid_json_lines(jsonl));
  EXPECT_NE(jsonl.find("\"nodes\": 42"), std::string::npos);
  EXPECT_NE(jsonl.find("\"incumbent\": 123"), std::string::npos);
}

TEST(TelemetryTest, ProgressLineIsRewrittenInPlace) {
  std::ostringstream sink, progress;
  Observer::Options options = sampled(sink);
  options.progress = &progress;
  Observer observer(options);
  {
    const ObserverScope bind(&observer);
    telemetry::set_stage("phase2", 6);
  }
  observer.sampler()->stop();
  const std::string text = progress.str();
  EXPECT_NE(text.find('\r'), std::string::npos);
  EXPECT_NE(text.find("phase2"), std::string::npos);
  EXPECT_NE(text.find("N=6"), std::string::npos);
}

// --- search tree -----------------------------------------------------------

TEST(TelemetryTest, TreeDumpRelabelsChildlessBranchedNodes) {
  telemetry::SearchTree tree;
  const std::int64_t root = tree.next_id();
  tree.record({root, -1, 0, -1, 0.0, 0.0, telemetry::NodeKind::kBranched});
  const std::int64_t child = tree.next_id();
  tree.record({child, root, 1, 4, 1.0, 1.0, telemetry::NodeKind::kBranched});
  const std::int64_t leaf = tree.next_id();
  tree.record({leaf, child, 2, 5, 0.0, 0.0, telemetry::NodeKind::kIntegral});
  const std::int64_t abandoned = tree.next_id();
  tree.record(
      {abandoned, root, 1, 4, 0.0, 0.0, telemetry::NodeKind::kBranched});
  EXPECT_EQ(tree.size(), 4u);

  std::ostringstream json;
  tree.write_json(json);
  ASSERT_TRUE(is_valid_json(json.str()));
  // `abandoned` branched but no child record exists: relabelled "budget" so
  // every non-root node in the dump has a prune reason or children.
  const std::string text = json.str();
  EXPECT_NE(text.find("\"recorded\": 4"), std::string::npos);
  EXPECT_NE(text.find("\"budget\""), std::string::npos);
  EXPECT_NE(text.find("\"integral\""), std::string::npos);

  std::ostringstream dot;
  tree.write_dot(dot);
  EXPECT_NE(dot.str().find("digraph"), std::string::npos);
  EXPECT_NE(dot.str().find("->"), std::string::npos);
}

TEST(TelemetryTest, TreeRingBufferEvictsOldestFirst) {
  telemetry::SearchTree tree;
  constexpr std::size_t kRecords = telemetry::SearchTree::kCapacity + 6;
  for (std::size_t i = 0; i < kRecords; ++i) {
    const std::int64_t id = tree.next_id();
    tree.record({id, id - 1, 1, 0, 0.0, 0.0, telemetry::NodeKind::kIntegral});
  }
  EXPECT_EQ(tree.size(), telemetry::SearchTree::kCapacity);
  std::ostringstream json;
  tree.write_json(json);
  const json::ParseResult dump = json::parse(json.str());
  ASSERT_TRUE(dump.ok) << dump.error;
  EXPECT_EQ(dump.value.member_int("evicted"), 6);
  // The oldest records went first: the dump starts at id 6.
  EXPECT_EQ(dump.value.find("nodes")->array().front().member_int("id"), 6);
}

TEST(TelemetryTest, EmptyTreeDumpIsValidJson) {
  const telemetry::SearchTree tree;
  std::ostringstream json;
  tree.write_json(json);
  EXPECT_TRUE(is_valid_json(json.str()));
  EXPECT_NE(json.str().find("\"recorded\": 0"), std::string::npos);
}

// --- JSON log stream -------------------------------------------------------

TEST(TelemetryTest, JsonLogEscapesAndCarriesCorrelation) {
  std::ostringstream sink;
  Observer::Options options;
  options.log_json = &sink;
  Observer observer(options);
  const LogLevelScope level(LogLevel::kWarning);
  {
    const ObserverScope bind(&observer);
    {
      telemetry::CorrelationScope scope(1234);
      SPARCS_WLOG << "quote \" backslash \\ newline \n tab \t done";
    }
    SPARCS_WLOG << "no correlation";
  }
  SPARCS_WLOG << "unbound: not mirrored";

  const std::string jsonl = sink.str();
  ASSERT_TRUE(is_valid_json_lines(jsonl));
  EXPECT_NE(jsonl.find("\"corr\": 1234"), std::string::npos);
  EXPECT_NE(jsonl.find("\"level\": \"warning\""), std::string::npos);
  EXPECT_NE(jsonl.find("\\\""), std::string::npos);
  EXPECT_NE(jsonl.find("\\n"), std::string::npos);
  EXPECT_EQ(jsonl.find("unbound"), std::string::npos);
  // The second statement ran without a bound id: no "corr" on its line.
  const std::size_t second = jsonl.find("no correlation");
  ASSERT_NE(second, std::string::npos);
  const std::size_t line_start = jsonl.rfind('\n', second);
  EXPECT_EQ(jsonl.find("\"corr\"", line_start), std::string::npos);
}

// --- metrics snapshots under concurrent writers ----------------------------

TEST(TelemetryTest, SnapshotsStayMonotonicUnderConcurrentAdds) {
  metrics::Registry reg;
  metrics::Counter& counter = reg.counter("test.stress");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) counter.add(1);
    });
  }
  std::int64_t last_value = 0;
  for (int i = 0; i < 200; ++i) {
    const metrics::MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_GE(snap.counters[0].value, last_value);
    last_value = snap.counters[0].value;
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
}

// --- solver integration ----------------------------------------------------

TEST(TelemetryTest, SolveRecordsConvergenceTimeline) {
  milp::Model m("knapsack");
  const milp::VarId a = m.add_binary("a");
  const milp::VarId b = m.add_binary("b");
  const milp::VarId c = m.add_binary("c");
  m.add_constraint(3.0 * milp::LinExpr(a) + 4.0 * milp::LinExpr(b) +
                       2.0 * milp::LinExpr(c) <= 6.0, "cap");
  m.set_objective(10.0 * milp::LinExpr(a) + 13.0 * milp::LinExpr(b) +
                      7.0 * milp::LinExpr(c), /*minimize=*/false);
  milp::SolverParams params = milp::optimality_params();
  params.num_threads = 1;
  const milp::MilpSolution s = milp::Solver(m, params).solve();
  ASSERT_EQ(s.status, milp::SolveStatus::kOptimal);
  ASSERT_FALSE(s.stats.convergence.empty());
  // Maximization: incumbent objectives are non-decreasing over time, nodes
  // and timestamps non-decreasing, and the last incumbent is the optimum.
  double last_obj = -1e300;
  double last_t = 0.0;
  for (const milp::ConvergenceEvent& e : s.stats.convergence) {
    EXPECT_GE(e.t_sec, last_t);
    last_t = e.t_sec;
    EXPECT_GE(e.objective, last_obj);
    last_obj = e.objective;
  }
  EXPECT_NEAR(last_obj, 20.0, 1e-6);
  const std::string json = s.stats.to_json();
  EXPECT_TRUE(is_valid_json(json));
  EXPECT_NE(json.find("\"convergence\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"incumbent\""), std::string::npos);
}

TEST(TelemetryTest, ParallelSolveMergesOrderedConvergence) {
  milp::Model m("pick");
  std::vector<milp::VarId> xs;
  milp::LinExpr sum;
  milp::LinExpr obj;
  for (int i = 0; i < 12; ++i) {
    xs.push_back(m.add_binary("x" + std::to_string(i)));
    sum += milp::LinExpr(xs.back());
    obj += static_cast<double>(i + 1) * milp::LinExpr(xs.back());
  }
  m.add_constraint(sum == 6.0, "pick6");
  m.set_objective(obj, /*minimize=*/true);
  milp::SolverParams params = milp::optimality_params();
  params.num_threads = 4;
  const milp::MilpSolution s = milp::Solver(m, params).solve();
  ASSERT_EQ(s.status, milp::SolveStatus::kOptimal);
  ASSERT_FALSE(s.stats.convergence.empty());
  double last_t = 0.0;
  for (const milp::ConvergenceEvent& e : s.stats.convergence) {
    EXPECT_GE(e.t_sec, last_t);  // merged timeline stays time-ordered
    last_t = e.t_sec;
  }
}

// Sampling a solve only watches it: the root LP that feeds the live slot's
// bound is the observer's, so an LP-bounded solve counts the same simplex
// calls and records the same incumbent timeline with or without a sampler.
TEST(TelemetryTest, SamplingLeavesTheSolversCountsAlone) {
  milp::Model m("knapsack");
  milp::LinExpr weight;
  milp::LinExpr value;
  for (int i = 0; i < 12; ++i) {
    const milp::VarId x = m.add_binary("x" + std::to_string(i));
    weight += static_cast<double>(3 + (i * 7) % 11) * milp::LinExpr(x);
    value += static_cast<double>(5 + (i * 5) % 13) * milp::LinExpr(x);
  }
  m.add_constraint(weight <= 30.0, "cap");
  m.set_objective(value, /*minimize=*/false);
  milp::SolverParams params = milp::optimality_params();
  params.num_threads = 1;

  const milp::MilpSolution plain = milp::Solver(m, params).solve();
  std::ostringstream sink;
  Observer observer(sampled(sink));
  milp::MilpSolution watched;
  {
    const ObserverScope bind(&observer);
    watched = milp::Solver(m, params).solve();
  }
  observer.sampler()->stop();

  ASSERT_EQ(plain.status, milp::SolveStatus::kOptimal);
  ASSERT_EQ(watched.status, milp::SolveStatus::kOptimal);
  EXPECT_GT(plain.stats.simplex_calls, 0);
  for (const milp::SolverStatsField& f : milp::kSolverStatsFields) {
    EXPECT_EQ(watched.stats.*f.member, plain.stats.*f.member) << f.name;
  }
  ASSERT_EQ(watched.stats.convergence.size(), plain.stats.convergence.size());
  for (std::size_t i = 0; i < plain.stats.convergence.size(); ++i) {
    EXPECT_EQ(watched.stats.convergence[i].objective,
              plain.stats.convergence[i].objective);
    EXPECT_EQ(watched.stats.convergence[i].nodes,
              plain.stats.convergence[i].nodes);
  }
}

TEST(TelemetryTest, SolveUnderObserverPublishesLiveStateAndTree) {
  std::ostringstream sink;
  Observer::Options options = sampled(sink);
  options.tree = true;
  Observer observer(options);
  milp::Model m("tree");
  milp::LinExpr sum;
  for (int i = 0; i < 8; ++i) {
    sum += milp::LinExpr(m.add_binary("x" + std::to_string(i)));
  }
  m.add_constraint(sum == 4.0, "pick4");
  milp::SolverParams params;
  params.num_threads = 1;
  const milp::SolverParams first = milp::first_feasible_params(params);
  // Unbound, the same solve records nowhere.
  EXPECT_EQ(milp::Solver(m, first).solve().status,
            milp::SolveStatus::kFeasible);
  EXPECT_EQ(observer.tree()->size(), 0u);
  {
    const ObserverScope bind(&observer);
    EXPECT_EQ(milp::Solver(m, first).solve().status,
              milp::SolveStatus::kFeasible);
  }
  observer.sampler()->stop();

  EXPECT_GT(observer.tree()->size(), 0u);
  std::ostringstream json;
  observer.tree()->write_json(json);
  EXPECT_TRUE(is_valid_json(json.str()));
  EXPECT_TRUE(is_valid_json_lines(sink.str()));
  EXPECT_NE(sink.str().find("\"solves_completed\": 1"), std::string::npos);
}

// --- isolation of concurrent runs ------------------------------------------

/// What one observer recorded, with times masked out.
struct Recorded {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::vector<std::string> span_names;
  std::size_t tree_nodes = 0;
  std::vector<std::string> log_messages;
  std::vector<std::int64_t> log_corrs;

  bool operator==(const Recorded& other) const {
    return counters == other.counters && gauges == other.gauges &&
           span_names == other.span_names && tree_nodes == other.tree_nodes &&
           log_messages == other.log_messages;
  }
};

Observer::Options everything(std::ostream& log) {
  Observer::Options options;
  options.metrics = true;
  options.spans = true;
  options.tree = true;
  options.log_json = &log;
  return options;
}

Recorded recorded(const Observer& observer, const std::string& log) {
  Recorded r;
  for (const auto& c : observer.metrics()->snapshot().counters) {
    r.counters[c.name] = c.value;
  }
  for (const auto& g : observer.metrics()->snapshot().gauges) {
    r.gauges[g.name] = g.value;
  }
  std::ostringstream trace;
  observer.spans()->write_chrome_json(trace);
  const json::ParseResult events = json::parse(trace.str());
  EXPECT_TRUE(events.ok) << events.error;
  for (const json::Value& event : events.value.array()) {
    r.span_names.push_back(event.member_string("name"));
  }
  std::sort(r.span_names.begin(), r.span_names.end());
  r.tree_nodes = observer.tree()->size();
  const std::regex seconds("[0-9.e+-]+ s\\b");
  std::istringstream lines(log);
  std::string line;
  while (std::getline(lines, line)) {
    const json::ParseResult record = json::parse(line);
    EXPECT_TRUE(record.ok) << line;
    r.log_messages.push_back(
        std::regex_replace(record.value.member_string("msg"), seconds, "# s"));
    r.log_corrs.push_back(record.value.member_int("corr"));
  }
  return r;
}

/// The paper's AR filter on a 200-CLB device: a sweep that searches (the
/// CLI's `--workload ar --rmax 200 --mmax 64 --delta 20`).
struct ArRun {
  double ct_ns;
  int threads;

  Recorded run() const {
    std::ostringstream log;
    Observer observer(everything(log));
    {
      const ObserverScope bind(&observer);
      const core::PartitionerReport report = partition();
      EXPECT_TRUE(report.feasible);
    }
    return recorded(observer, log.str());
  }

  core::PartitionerReport partition() const {
    core::PartitionerOptions options;
    options.budget.delta = 20.0;
    options.budget.solver.num_threads = threads;
    return core::TemporalPartitioner(workloads::ar_filter_task_graph(),
                                     arch::custom("ar", 200.0, 64.0, ct_ns),
                                     options)
        .run();
  }
};

/// Runs `body(i)` for i = 0 and 1 on two threads released together.
template <typename Body>
void run_concurrently(const Body& body) {
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      body(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

TEST(ObserverIsolationTest, ConcurrentRunsRecordExactlyWhatTheyRecordAlone) {
  const LogLevelScope level(LogLevel::kDebug);
  const ArRun runs[2] = {{50.0, 1}, {1.0, 1}};
  const Recorded alone[2] = {runs[0].run(), runs[1].run()};
  ASSERT_FALSE(alone[0] == alone[1]);  // the runs are told apart
  for (const Recorded& r : alone) {
    EXPECT_GT(r.counters.at("milp.solves"), 0);
    EXPECT_GT(r.tree_nodes, 0u);
    EXPECT_GT(std::count(r.span_names.begin(), r.span_names.end(),
                         "Reduce_Latency probe"),
              0);
    EXPECT_FALSE(r.log_messages.empty());
  }

  Recorded together[2];
  run_concurrently([&](int i) { together[i] = runs[i].run(); });
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(together[i].counters, alone[i].counters) << "run " << i;
    EXPECT_EQ(together[i].gauges, alone[i].gauges) << "run " << i;
    EXPECT_EQ(together[i].span_names, alone[i].span_names) << "run " << i;
    EXPECT_EQ(together[i].tree_nodes, alone[i].tree_nodes) << "run " << i;
    EXPECT_EQ(together[i].log_messages, alone[i].log_messages) << "run " << i;
  }
}

/// A 0-1 knapsack of `items` items: at 48 or more variables an optimality
/// solve runs two workers, and the tree is large enough to share.
milp::Model knapsack(int items) {
  milp::Model m("knapsack");
  milp::LinExpr weight, value;
  double capacity = 0.0;
  for (int i = 0; i < items; ++i) {
    const milp::VarId x = m.add_binary("x" + std::to_string(i));
    const double w = 7.0 + (i * 13) % 17;
    weight += w * milp::LinExpr(x);
    value += (5.0 + (i * 11) % 19) * milp::LinExpr(x);
    capacity += w / 2.0;
  }
  m.add_constraint(std::move(weight) <= capacity, "capacity");
  m.set_objective(std::move(value), /*minimize=*/false);
  return m;
}

TEST(ObserverIsolationTest, HelperThreadsRecordIntoTheirSolvesObserver) {
  const LogLevelScope level(LogLevel::kDebug);
  const milp::Model models[2] = {knapsack(48), knapsack(56)};
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "needs at least 2 hardware threads";
  }
  milp::SolverParams params = milp::optimality_params();
  params.num_threads = 2;

  std::ostringstream logs[2];
  milp::MilpSolution solutions[2];
  Observer observers[2] = {Observer(everything(logs[0])),
                           Observer(everything(logs[1]))};
  run_concurrently([&](int i) {
    const ObserverScope bind(&observers[i]);
    solutions[i] = milp::Solver(models[i], params).solve();
  });

  std::int64_t corrs[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    const milp::MilpSolution& s = solutions[i];
    ASSERT_EQ(s.status, milp::SolveStatus::kOptimal) << "solve " << i;
    // In optimality mode every node a worker explores, and every branch it
    // refutes on entry, is one tree record: the observer holds all of the
    // solve's nodes, the helper's included, and nobody else's.
    EXPECT_EQ(static_cast<std::int64_t>(observers[i].tree()->size()),
              s.stats.nodes_explored + s.stats.nodes_pruned_infeasible)
        << "solve " << i;
    // Every accepted incumbent logged one line on the worker that found it,
    // and every line carries the solve's own correlation id.
    const Recorded r = recorded(observers[i], logs[i].str());
    const auto incumbents =
        std::count_if(r.log_messages.begin(), r.log_messages.end(),
                      [](const std::string& msg) {
                        return msg.rfind("incumbent objective", 0) == 0;
                      });
    EXPECT_GE(incumbents, s.stats.incumbent_updates) << "solve " << i;
    ASSERT_FALSE(r.log_corrs.empty());
    corrs[i] = r.log_corrs.front();
    for (const std::int64_t corr : r.log_corrs) EXPECT_EQ(corr, corrs[i]);
  }
  EXPECT_NE(corrs[0], corrs[1]);
}

// --- process memory --------------------------------------------------------

TEST(TelemetryTest, MemoryStatusReadsRss) {
  const telemetry::MemoryStatus mem = telemetry::read_memory_status();
#ifdef __linux__
  EXPECT_GT(mem.rss_kb, 0);
  EXPECT_GE(mem.rss_peak_kb, mem.rss_kb);
#else
  EXPECT_GE(mem.rss_kb, 0);
#endif
}

}  // namespace
}  // namespace sparcs
